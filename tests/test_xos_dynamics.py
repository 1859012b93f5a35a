import functools
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_demand,
    brute_gray_clause,
    brute_gray_demand,
    brute_gray_value,
    canon_digest,
    random_submodular_table,
    random_table,
    recording_oracles,
    reference_best_reply_dynamic,
    seeded,
)
from sspeq import xos_dynamics
from sspeq.auction import is_pure_nash_no_overbid, is_traditional
from sspeq.valuations import (
    CapabilityError,
    DomainError,
    TableValuation,
    Valuation,
    bundle_of,
    check_clause,
    cheapest_subsets,
    iter_bits,
    mask_of,
    valuation_from_json,
    verify_class,
)
from sspeq.xos_dynamics import (
    GRAY_DEMAND_POP_CAP,
    GRAY_M_CAP,
    GrayValuation,
    build_exponential_instance,
    default_step_cap,
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


# sha256 of each path's masks, space-separated in path order. The m <= 9 pins
# were recorded from the backtracking search the recorded paths replace.
PATH_DIGESTS = {
    3: "6abe02a0f43d5a1a7162bad148ee383ab48efb440a7394ed4a71e2c47ef7495e",
    5: "94089b2eed15f363bccbdd7ac53e3018670a4b2248050c800684c21ce4247276",
    7: "ffde7aa54fcacf97817ad7e55795534d6a2985c0637bb7c3aa5f64671d781c78",
    9: "d39da660d375dd3ca4f5e1d589de4411d149ef2ee207a9a65afb5df75f9282d3",
    11: "f3cd50f40a53c3ff7320e90d52b474ab448dc1e95826f8671b1ed3c50c0f0292",
}


@pytest.mark.parametrize("m", sorted(PATH_DIGESTS))
def test_middle_levels_path_is_pinned(m):
    masks = build_exponential_instance(m)[1].path_masks
    assert hashlib.sha256(" ".join(map(str, masks)).encode()).hexdigest() == PATH_DIGESTS[m]


def test_middle_levels_cap_boundary():
    assert GRAY_M_CAP == 15
    strings = gray_middle_levels(15)
    assert len(strings) == 2 * math.comb(15, 7)
    assert strings[0] == "1" * 7 + "0" * 8
    with pytest.raises(DomainError, match=f"need 3 <= m <= {GRAY_M_CAP}"):
        gray_middle_levels(17)


def test_loading_a_two_bidder_instance_builds_the_path_once(monkeypatch):
    builds = []
    search = xos_dynamics._rotation_extension

    def counted(*args):
        builds.append(args)
        return search(*args)

    monkeypatch.setattr(xos_dynamics, "_rotation_extension", counted)
    # an empty cache of its own over the same builder, so the shared cache
    # keeps the m = 15 path that the cap tests build once between them
    cached = functools.lru_cache(maxsize=None)(xos_dynamics._gray_path_masks.__wrapped__)
    monkeypatch.setattr(xos_dynamics, "_gray_path_masks", cached)
    v0, v1 = (
        valuation_from_json({"kind": "gray_exponential", "m": 11, "player": p, "eps": "1/1848"})
        for p in (0, 1)
    )
    assert len(builds) == 1
    assert v0.path_masks is v1.path_masks


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


@st.composite
def gray_prices(draw, m, L, eps):
    """A shared base k/d (d in 1..8, mostly 1/2) plus a multiple of eps per
    item. Near base 1/2 every size earns about m'/2: steps 0, 2, 4 make
    middle bundles tie with each other, and steps near the path length L
    make them tie with bundles of other sizes."""
    half = st.just(Fraction(1, 2))
    base = draw(st.one_of(half, half, half, st.builds(Fraction, st.integers(0, 8), st.integers(1, 8))))
    steps = draw(st.sampled_from(((0, 2, 4), (0, 1, 2, L - 2, L - 1, L))))
    return [base + draw(st.sampled_from(steps)) * eps for _ in range(m)]


@pytest.mark.parametrize("m", [5, 7])
@pytest.mark.parametrize("player", [0, 1])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_gray_demand_is_the_brute_bundle(m, player, data):
    v = build_exponential_instance(m)[player]
    prices = data.draw(gray_prices(m, v.L, v.eps))
    assert v.demand(prices) == brute_gray_demand(v, prices)


@pytest.mark.parametrize(
    "player,steps,tied,want",
    [
        # a size-2 bundle and three middle bundles (k = 16, 12, 18) tie
        (0, [10, 10, 16, 12, 18], [{0, 1}, {0, 1, 2}, {0, 1, 3}, {0, 1, 4}], {0, 1, 4}),
        # a size-2 bundle and two middle bundles (k = 15, 17) tie
        (1, [11, 15, 17, 9, 2], [{3, 4}, {1, 3, 4}, {2, 3, 4}], {2, 3, 4}),
    ],
)
def test_gray_demand_tie_goes_to_the_largest_path_position(player, steps, tied, want):
    v = build_exponential_instance(5)[player]
    prices = [Fraction(1, 2) + c * v.eps for c in steps]
    profit = {}
    for mask in range(1 << 5):
        S = bundle_of(mask)
        profit[S] = v.value(S) - sum((prices[j] for j in S), Fraction(0))
    top = max(profit.values())
    assert {S for S in profit if profit[S] == top} == set(map(frozenset, tied))
    assert v.demand(prices) == brute_gray_demand(v, prices) == frozenset(want)


@pytest.mark.parametrize("m", [5, 7, 9, 11])
@pytest.mark.parametrize("player", [0, 1])
@given(st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_gray_demand_is_the_brute_bundle_on_uniform_prices(m, player, seed):
    rng = seeded(seed)
    v = build_exponential_instance(m)[player]
    # uniform on [0, 1] in steps of eps / 2, eps = 1 / (2L)
    prices = [Fraction(rng.randint(0, 4 * v.L), 4 * v.L) for _ in range(m)]
    assert v.demand(prices) == brute_gray_demand(v, prices)


def ties_reversed(costs, k, order):
    """cheapest_subsets with each run of equal costs yielded in reverse."""
    run = []
    for cost, mask in cheapest_subsets(costs, k, order):
        if run and run[0][0] != cost:
            yield from reversed(run)
            run = []
        run.append((cost, mask))
    yield from reversed(run)


def short_middle_path(rng, m, length):
    """A random walk of at most `length` distinct masks through the middle
    levels, one flip per step, from a random mask of weight m' or m'+1."""
    mp = m // 2
    path = [mask_of(rng.sample(range(m), rng.choice((mp, mp + 1))))]
    while len(path) < length:
        end = path[-1]
        up = end.bit_count() == mp
        steps = [end ^ 1 << j for j in range(m) if (end >> j & 1) != up and end ^ 1 << j not in path]
        if not steps:
            break
        path.append(rng.choice(steps))
    return path


@pytest.mark.parametrize("reverse_ties", [False, True])
@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gray_demand_on_short_custom_paths(reverse_ties, seed):
    # off a short path every middle bundle has k = 0, and a set of at least
    # m'+1 items at one cheapest price gives many middle bundles of one cost:
    # (profit, k) ties that the lexicographic rule decides, whatever order
    # the kernel yields them in (about a fifth of the draws)
    rng = seeded(seed)
    m = rng.choice((5, 7))
    path = short_middle_path(rng, m, rng.randint(1, 5))
    v = GrayValuation(m, rng.randrange(2), path, Fraction(1, 2 * len(path)))
    base = rng.choice((Fraction(1, 2), Fraction(rng.randint(0, 8), rng.randint(1, 8))))
    cheap = rng.sample(range(m), rng.randint(m // 2 + 1, m))
    prices = [base + (0 if j in cheap else rng.randint(1, 2 * v.L)) * v.eps for j in range(m)]
    with pytest.MonkeyPatch.context() as patch:
        if reverse_ties:
            patch.setattr(xos_dynamics, "cheapest_subsets", ties_reversed)
        assert v.demand(prices) == brute_gray_demand(v, prices)


def test_gray_demand_tie_is_lexicographic_in_any_kernel_order(monkeypatch):
    # every middle bundle has k = 0; {0,1,3}, {1,2,3} and {1,3,4} earn 2,
    # as do sizes 2 and 4, and the tie goes to the lexicographically first
    v = GrayValuation(5, 1, [0b01010], Fraction(1, 4))
    prices = [Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(1, 2)]
    order = [mask for _, mask in ties_reversed([1, 0, 1, 0, 1], 3, [1, 3, 0, 2, 4])]
    assert order[:3] == [0b11010, 0b01110, 0b01011]
    monkeypatch.setattr(xos_dynamics, "cheapest_subsets", ties_reversed)
    assert v.demand(prices) == brute_gray_demand(v, prices) == frozenset({0, 1, 3})


def test_gray_demand_cap_boundary(monkeypatch):
    def stub(m):
        # a one-vertex path of weight m': every middle bundle has k = 0
        return GrayValuation(m, 1, [(1 << (m // 2)) - 1], Fraction(1, 4))

    pops = []

    def counted(costs, k, order):
        for item in cheapest_subsets(costs, k, order):
            pops.append(item)
            yield item

    assert GRAY_DEMAND_POP_CAP == math.comb(15, 8) == 6435
    monkeypatch.setattr(xos_dynamics, "cheapest_subsets", counted)
    # at price 1/2 sizes m', m'+1 and m'+2 all earn m'/2 and every middle
    # bundle costs the same, so the demand pops them all; the tie goes to
    # the middle, and among the k = 0 middle bundles to the smallest
    assert stub(15).demand([Fraction(1, 2)] * 15) == frozenset(range(8))
    assert len(pops) == GRAY_DEMAND_POP_CAP
    v = stub(17)
    with pytest.raises(CapabilityError, match=f"capped at {GRAY_DEMAND_POP_CAP} bundles"):
        v.demand([Fraction(1, 2)] * 17)
    # a refused demand computed nothing, so the ledger does not count it
    assert v.ledger.demand == 0


def test_exponential_dynamic_m5_frozen():
    v0, v1, _, init = build_exponential_instance(5)
    oracles = recording_oracles(v0, v1)
    assert init == (frozenset({2, 3, 4}), frozenset({0, 1}))
    run = run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init)
    t = run.trace
    assert not t.truncated
    assert t.exchanges() == 19
    assert t.responses == 22
    assert t.initial_sum == Fraction(9, 2)
    # one demand per response and one clause per response plus the first
    assert [v.ledger.snapshot() for v in (v0, v1)] == [{"value": 0, "demand": 11, "xos": 12}] * 2
    # every exchange trades exactly one item and lifts the sum by exactly eps
    prev_alloc, prev_sum = t.initial_alloc, t.initial_sum
    for row in t.rows:
        assert len(prev_alloc[0] ^ row.alloc[0]) == 1
        assert len(prev_alloc[1] ^ row.alloc[1]) == 1
        assert row.winning_sum - prev_sum == Fraction(1, 40)
        prev_alloc, prev_sum = row.alloc, row.winning_sum
    ok, _ = dynamic_trace_audit(t)
    assert ok
    ok, witness = is_traditional((v0, v1), run.alloc, run.bids)
    assert ok, witness
    ok, witnesses = is_pure_nash_no_overbid((v0, v1), run.bids)
    assert ok, witnesses
    # the two oracles commit alternating path positions
    assert sorted(oracles[0].k_map.values()) == list(range(0, 20, 2))
    assert sorted(oracles[1].k_map.values()) == list(range(1, 20, 2))


# sha256 of the whole m = 7 run: trace rows, final state, both recording oracles'
# touch orders and both ledgers, recorded from the Fraction-arithmetic dynamic.
DYNAMIC_M7_DIGEST = "2b88bc5afea98f29144562dc47a3eec73ade4d14c6d2fae86540772287a67935"


def test_exponential_dynamic_m7_length():
    v0, v1, _, init = build_exponential_instance(7)
    oracles = recording_oracles(v0, v1)
    run = run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init)
    t = run.trace
    assert not t.truncated
    assert t.exchanges() == 69
    ok, _ = dynamic_trace_audit(t)
    assert ok
    pinned = (
        t.initial_alloc,
        t.initial_sum,
        [(row.responder, row.alloc, row.winning_sum) for row in t.rows],
        t.responses,
        run.alloc,
        run.bids,
        [o.touch_order for o in oracles],
        [v.ledger.snapshot() for v in (v0, v1)],
    )
    assert canon_digest(pinned) == DYNAMIC_M7_DIGEST


@pytest.mark.parametrize("m,count", [(9, 251), (11, 923), (13, 3431), (15, 12_869)])
def test_exponential_dynamic_walks_the_whole_path(m, count):
    v0, v1, oracles, init = build_exponential_instance(m)
    run = run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init)
    assert not run.trace.truncated
    assert run.trace.exchanges() == count == 2 * math.comb(m, m // 2) - 1
    ok, problem = dynamic_trace_audit(run.trace)
    assert ok, problem


def test_dynamic_requires_init():
    v0, v1, _, _ = build_exponential_instance(5)
    with pytest.raises(TypeError):
        run_best_reply_dynamic(v0, v1)


def test_dynamic_step_cap_marks_truncated():
    v0, v1, oracles, init = build_exponential_instance(5)
    run = run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init, step_cap=3)
    assert run.trace.truncated


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


def fractional_submodular_table(rng, m):
    """A random submodular table scaled by 1/d plus an additive part with
    weights k/d': its greedy clauses bring many denominators, so the
    dynamic's run denominator grows while it runs."""
    base = random_submodular_table(rng, m)
    scale = Fraction(1, rng.randint(2, 9))
    weights = [Fraction(rng.randint(0, 6), rng.randint(1, 7)) for _ in range(m)]
    table = [
        base._value_mask(mask) * scale + sum((weights[j] for j in iter_bits(mask)), Fraction(0))
        for mask in range(1 << m)
    ]
    return TableValuation(m, table)


def random_init(rng, m):
    """A random two-way split of the items; a quarter of the draws give
    one bidder every item and the other the empty bundle."""
    if rng.random() < 0.25:
        owner = rng.randrange(2)
        return [set(range(m)) if i == owner else set() for i in (0, 1)]
    init = [set(), set()]
    for j in range(m):
        init[rng.randrange(2)].add(j)
    return init


def dynamic_outcome(run, valuations, oracles=None):
    t = run.trace
    return (
        t.initial_alloc,
        t.initial_sum,
        [(row.responder, row.alloc, row.winning_sum) for row in t.rows],
        t.responses,
        t.truncated,
        run.alloc,
        run.bids,
        [v.ledger.snapshot() for v in valuations],
        [o.touch_order for o in oracles] if oracles else None,
    )


def both_dynamics(make, **kwargs):
    """The int dynamic and the Fraction reference, each on its own fresh
    instance from make() -> (valuations, oracles, init)."""
    outcomes = []
    for dynamic in (run_best_reply_dynamic, reference_best_reply_dynamic):
        valuations, oracles, init = make()
        run = dynamic(*valuations, init, oracles=oracles, **kwargs)
        outcomes.append((run, dynamic_outcome(run, valuations, oracles)))
    return outcomes


TABLES = {
    "submodular": random_submodular_table,
    "fractional": fractional_submodular_table,
    # greedy clauses of a monotone table need not be legal, and then a rival
    # can bid on an item the responder holds: the loop must still agree
    "monotone": lambda rng, m: TableValuation(m, random_table(rng, m)),
}


@given(st.integers(0, 10_000), st.sampled_from(sorted(TABLES)))
@settings(max_examples=80, deadline=None)
def test_dynamic_matches_the_fraction_reference_on_tables(seed, kind):
    def make():
        rng = seeded(seed)
        m = rng.randint(2, 5)
        valuations = (TABLES[kind](rng, m), TABLES[kind](rng, m))
        return valuations, None, random_init(rng, m)

    (run, got), (_, want) = both_dynamics(make, step_cap=200)
    assert got == want
    assert canon_digest(got) == canon_digest(want)
    assert all(isinstance(b, Fraction) for row in run.bids for b in row)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_dynamic_matches_the_fraction_reference_on_gray_random_inits(seed):
    def make():
        rng = seeded(seed)
        v0, v1, _, _ = build_exponential_instance(rng.choice((5, 7)))
        return (v0, v1), recording_oracles(v0, v1), random_init(rng, v0.m)

    (_, got), (_, want) = both_dynamics(make)
    assert got == want


@pytest.mark.parametrize("m", [5, 7, 9, 11])
def test_dynamic_matches_the_fraction_reference_on_the_gray_path(m):
    def make():
        v0, v1, _, init = build_exponential_instance(m)
        return (v0, v1), recording_oracles(v0, v1), init

    (run, got), (_, want) = both_dynamics(make)
    assert got == want
    assert run.trace.exchanges() == 2 * math.comb(m, m // 2) - 1


def test_dynamic_run_denominator_grows_mid_run(monkeypatch):
    # the fractional tables do bring a new denominator after the first two
    # clause rows; found by seed so that the differential test covers it
    growths = []

    def recording(ints, D, to):
        growths.append(v0.ledger.xos + v1.ledger.xos)
        return rescale(ints, D, to)

    rescale = xos_dynamics.rescale
    monkeypatch.setattr(xos_dynamics, "rescale", recording)
    for seed in range(50):
        rng = seeded(seed)
        m = rng.randint(3, 5)
        v0, v1 = fractional_submodular_table(rng, m), fractional_submodular_table(rng, m)
        run_best_reply_dynamic(v0, v1, random_init(rng, m), step_cap=200)
        if any(queries > 2 for queries in growths):
            break
        growths.clear()
    assert any(queries > 2 for queries in growths)


@pytest.mark.parametrize("m", [5, 7, 9])
@pytest.mark.parametrize("player", [0, 1])
def test_gray_int_oracle_is_D_times_the_value(m, player):
    v = build_exponential_instance(m)[player]
    f, D = v.int_oracle()
    assert all(f(mask) == D * brute_gray_value(v, bundle_of(mask)) for mask in range(1 << m))
    assert v.ledger.total() == 0


def int_clause_weights(entry, v, mask):
    """entry(v, mask) as one rational per item."""
    row, D = entry(v, mask)
    return [Fraction(x, D) for x in row]


@pytest.mark.parametrize("m", [3, 5, 7, 9])
@pytest.mark.parametrize("player", [0, 1])
def test_gray_int_clause_is_the_base_int_clause(m, player):
    v = build_exponential_instance(m)[player]
    for mask in range(1 << m):
        want = brute_gray_clause(v, bundle_of(mask))
        assert int_clause_weights(Valuation._int_clause, v, mask) == want, bin(mask)
        assert int_clause_weights(GrayValuation._int_clause, v, mask) == want, bin(mask)
        assert sum(want) == brute_gray_value(v, bundle_of(mask))
    assert v.ledger.total() == 0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gray_int_clause_on_short_custom_paths(seed):
    # a middle bundle off a short path designates its lowest item, as the
    # path's last vertex does, and takes the k = 0 clause; both entries agree
    # on every bundle, and every middle bundle's clause is legal
    rng = seeded(seed)
    m = rng.choice((5, 7))
    path = short_middle_path(rng, m, rng.randint(1, 5))
    eps = Fraction(1, rng.randint(2 * len(path), 3 * len(path)))
    v = GrayValuation(m, rng.randrange(2), path, eps)
    for mask in range(1 << m):
        want = brute_gray_clause(v, bundle_of(mask))
        assert int_clause_weights(Valuation._int_clause, v, mask) == want, bin(mask)
        assert int_clause_weights(GrayValuation._int_clause, v, mask) == want, bin(mask)
        if mask.bit_count() == m // 2 + 1:
            clause = {j: w for j, w in enumerate(want) if mask >> j & 1}
            assert check_clause(v, bundle_of(mask), clause) == (True, None), bin(mask)


def test_gray_clause_off_the_path_designates_the_lowest_item():
    # {2, 3, 4} is a middle bundle whose codeword is not on the path
    v = GrayValuation(5, 1, [0b00011, 0b00111], Fraction(1, 8))
    assert v.designated_item(0b11100) == 2
    assert v.xos_clause({2, 3, 4}) == {2: Fraction(1, 2), 3: 1, 4: 1}
    assert int_clause_weights(GrayValuation._int_clause, v, 0b11100) == [0, 0, Fraction(1, 2), 1, 1]


@pytest.mark.parametrize("m", [5, 7, 9, 11])
@pytest.mark.parametrize("player", [0, 1])
@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_gray_int_demand_entry_is_the_brute_bundle(m, player, seed):
    rng = seeded(seed)
    v = build_exponential_instance(m)[player]
    # a random denominator, sometimes a multiple of eps's, and prices in [0, 1]
    D = rng.choice((rng.randint(1, 60), 2 * v.L * rng.randint(1, 3)))
    p = [rng.randint(0, D) for _ in range(m)]
    assert bundle_of(v._demand(p, D)) == brute_gray_demand(v, [Fraction(x, D) for x in p])
    assert v.ledger.demand == 0


class ClauseStub:
    """Forwards int clause queries to a valuation until `bad` have been
    asked, then answers a clause with a negative weight, -1/3 on item 0."""

    def __init__(self, valuation, bad):
        self.valuation, self.bad, self.asked = valuation, bad, 0

    def _int_clause(self, mask):
        self.asked += 1
        if self.asked > self.bad:
            return [-1] + [0] * (self.valuation.m - 1), 3
        return self.valuation._int_clause(mask)


@pytest.mark.parametrize("bad", [0, 3])
def test_dynamic_rejects_a_negative_clause_weight(bad):
    v0, v1, _, init = build_exponential_instance(5)
    with pytest.raises(DomainError, match="bids must be nonnegative"):
        run_best_reply_dynamic(v0, v1, init, oracles=(v0, ClauseStub(v1, bad)))


def test_default_step_cap_walks_the_whole_gray_path():
    # the cap reads m off the pair, not the path, so a one-vertex path will do
    v0, v1 = (GrayValuation(15, p, [(1 << 7) - 1], Fraction(1, 4)) for p in (0, 1))
    assert default_step_cap(v0, v1) == 2 * math.comb(15, 7) + 2 == 12_872
    assert default_step_cap(*build_exponential_instance(5)[:2]) == 10_000
    rng = seeded(0)
    assert default_step_cap(random_submodular_table(rng, 3), random_submodular_table(rng, 3)) == 10_000


def test_a_tie_with_the_held_bundle_is_no_improvement():
    # bidder 1 holds {1} and, against bidder 0's bid of 1 on item 0, demands
    # {0}: the same profit 1/2 (and {0, 1} ties too), so bidder 1 must stay
    def make():
        v0 = TableValuation(2, [0, 1, 1, 2])
        v1 = TableValuation(2, [0, Fraction(3, 2), Fraction(1, 2), Fraction(3, 2)])
        return (v0, v1), None, [{0}, {1}]

    (run, got), (_, want) = both_dynamics(make)
    assert got == want
    assert run.trace.initial_alloc == (frozenset({0}), frozenset({1}))
    assert run.trace.rows[0].responder == 0


def test_dynamic_responses_stay_on_ints(monkeypatch):
    # no public demand, price check, price scaling, Fraction value or
    # Fraction clause per response: the loop hands the int rows to the
    # demand entry and reads each clause from the int clause entry
    from sspeq import valuations

    def refused(*args):
        raise AssertionError("the dynamic left its int path")

    v0, v1, oracles, init = build_exponential_instance(7)
    for owner, name in [
        (valuations.Valuation, "demand"),
        (valuations.Valuation, "_check_prices"),
        (valuations.Valuation, "xos_clause"),
        (GrayValuation, "_xos_clause"),
        (GrayValuation, "_value_mask"),
        (valuations, "scale_to_ints"),
        (xos_dynamics, "parse_money"),
    ]:
        monkeypatch.setattr(owner, name, refused)
    run = run_best_reply_dynamic(v0, v1, init, oracles=oracles)
    assert run.trace.exchanges() == 69
