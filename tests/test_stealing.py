from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_bids,
    brute_find_steal,
    brute_stealing,
    canon_digest,
    random_additive,
    random_budget_additive,
    random_coverage,
    random_submodular_table,
    random_table,
    random_weights,
    seeded,
)
from sspeq.auction import is_pure_nash_no_overbid, is_traditional, welfare
from sspeq.stealing import (
    ORDERING_POLICIES,
    STEAL_BOUND_M_CAP,
    StealCapExceeded,
    budget_additive_steal_bound,
    classify_loose_tight,
    compute_bids,
    find_steal,
    granularity_steal_bound,
    int_oracles,
    marginal_diversity,
    owner_first,
    pseudo_poly_steal_bound,
    run_budget_additive_stealing,
    run_iterative_stealing,
    steal_search,
)
from sspeq.topsteal import ErasedValuation, MarginalValuation, top_steal
from sspeq.valuations import (
    TABLE_M_CAP,
    AdditiveValuation,
    BudgetAdditiveValuation,
    CapabilityError,
    CoverageValuation,
    DomainError,
    TableValuation,
    XOSExplicitValuation,
    mask_of,
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


@pytest.mark.parametrize("bids", [
    [[-5, 0], [0, -5]],  # negative
    [[3, 0], [0]],  # a short row
    [[3, 0]],  # a missing row
    [[3, 0], [0, 2], [0, 0]],  # a phantom row
    [[3, 0, 0], [0, 2, 0]],  # too wide
])
def test_find_steal_rejects_malformed_bids(bids):
    with pytest.raises(DomainError):
        find_steal(two_bidder_instance(), ({0}, {1}), bids)


def test_find_steal_reads_money_strings():
    vs, alloc = two_bidder_instance(), ({1}, {0})
    assert find_steal(vs, alloc, [["0", "1/2"], ["3/2", "0"]]) == find_steal(
        vs, alloc, [[0, Fraction(1, 2)], [Fraction(3, 2), 0]]
    ) == (0, 1, 0)


@pytest.mark.parametrize("alloc, orders", [
    (({0, 1}, set()), [[0], []]),  # orders missing items
    (({0}, {1}), [[0, 0, 1], [1, 0]]),  # an item twice
    (({0}, {1}), [[0, 2], [1, 0]]),  # an item outside 0..m-1
    (({0}, {1}), [[0, 1]]),  # a missing order
])
def test_compute_bids_rejects_orders_that_are_not_permutations(alloc, orders):
    with pytest.raises(DomainError):
        compute_bids(two_bidder_instance(), alloc, orders)


@pytest.mark.parametrize("make", [
    lambda: AdditiveValuation(2, (5, 5)),
    lambda: BudgetAdditiveValuation(2, 4, (3, 3)),
    lambda: TableValuation(2, [0, 1, 1, 2]),
    lambda: CoverageValuation(2, [(0, 1, 3)]),
])
def test_faces_reject_items_outside_the_bidders(make):
    bids = ((0, 0, 0), (0, 0, 1))
    # item 2 lies outside every bidder's 0..1
    with pytest.raises(DomainError):
        find_steal([make(), make()], ({0}, {1, 2}), bids)
    with pytest.raises(DomainError):
        compute_bids([make(), make()], ({0}, {1, 2}), [[0, 1, 2]] * 2)
    # a bidder with fewer items than the first cannot read the victim's item 2
    wide = AdditiveValuation(3, (1, 1, 1))
    with pytest.raises(DomainError):
        find_steal([wide, make()], ({0}, {1, 2}), bids)
    with pytest.raises(DomainError):
        run_iterative_stealing([wide, make()], ({0}, {1, 2}))


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


def test_loose_tight_checks_allocation_and_bids():
    v = BudgetAdditiveValuation(2, 3, (2, 2))
    alloc = (frozenset({0, 1}),)
    bids = compute_bids([v], alloc, [[0, 1]])
    for bad_alloc, bad_bids in (
        ((frozenset({0, 2}),), bids),  # an item outside 0..m-1
        (alloc, ((bids[0][0],),)),  # a short bid row
        (alloc, bids + ((0, 5),)),  # a bid row with no bidder
        ((alloc[0], frozenset()), bids),  # a bundle with no bidder
    ):
        with pytest.raises(DomainError):
            classify_loose_tight([v], bad_alloc, bad_bids)


@pytest.mark.parametrize("j", [-1, 2])
def test_marginal_diversity_rejects_items_out_of_range(j):
    v = AdditiveValuation(2, (1, 2))
    with pytest.raises(DomainError, match=r"not within 0\.\.1"):
        marginal_diversity(v, j)


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
    # the same events, tags included, as the Fraction reference loop
    want = brute_stealing(vs, init, tagged=True)[4]
    assert [(e.thief, e.victim, e.item, e.welfare_before, e.welfare_after, e.prices_after, e.tag)
            for e in run.log.events] == want


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
    assert pseudo_poly_steal_bound([v]) == 2 * 2 + 3 * (cap - 2)
    w = CoverageValuation(cap + 1, path)
    with pytest.raises(CapabilityError, match=f"m={cap}"):
        marginal_diversity(w, 0)
    with pytest.raises(CapabilityError, match=f"m={cap}"):
        granularity_steal_bound([v, w])
    with pytest.raises(CapabilityError, match=f"m={cap}"):
        pseudo_poly_steal_bound([v, w])


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_pure_nash_no_overbid([], [[0]]),
        lambda: is_traditional([], [], [[0]]),
        lambda: welfare([], []),
        lambda: compute_bids([], [], []),
        lambda: find_steal([], [], [[0]]),
        lambda: run_iterative_stealing([], []),
        lambda: run_budget_additive_stealing([], []),
        lambda: top_steal([], []),
    ],
    ids=["nash", "traditional", "welfare", "compute_bids", "find_steal", "stealing",
         "budget_stealing", "top_steal"],
)
def test_empty_bidder_list_is_a_domain_error_everywhere(call):
    with pytest.raises(DomainError, match="need at least one bidder"):
        call()


# -- the int kernels against the Fraction reference in conftest ------------------

FAMILIES = ("table", "coverage", "additive", "budget", "xos")


def random_bidder(rng, kind, m):
    """A bidder of one family, or a conditioned or erased one of a random family."""
    if kind == "table":
        return random_submodular_table(rng, m)
    if kind == "coverage":
        return random_coverage(rng, m, den=6)
    if kind == "additive":
        return random_additive(rng, m, den=6)
    if kind == "budget":
        return random_budget_additive(rng, m, den=6)
    if kind == "xos":
        return XOSExplicitValuation(m, [random_weights(rng, m) for _ in range(rng.randint(1, 3))])
    base = random_bidder(rng, rng.choice(FAMILIES), m)
    if kind == "marginal":
        return MarginalValuation(base, rng.randrange(m))
    return ErasedValuation(base, {j for j in range(m) if rng.random() < 0.3})


def random_instance(seed, kinds, m_max=8):
    """(valuations, allocation) drawn from the seed alone, so a second call
    gives a fresh copy with fresh ledgers."""
    rng = seeded(seed)
    n, m = rng.randint(2, 3), rng.randint(1, m_max)
    vals = [random_bidder(rng, rng.choice(kinds), m) for _ in range(n)]
    alloc = [set() for _ in range(n)]
    for j in range(m):
        alloc[rng.randrange(n)].add(j)
    return vals, [frozenset(S) for S in alloc], rng


def run_both(vals, ref_vals, init, run, **kw):
    """The library run and the reference run on twin instances: event rows,
    final state (None when capped) and ledgers of each."""
    try:
        out = run(vals, init, **kw)
        log, final = out.log, (out.alloc, out.bids, out.orders)
    except StealCapExceeded as err:
        log, final = err.log, None
    rows = [
        (e.thief, e.victim, e.item, e.welfare_before, e.welfare_after, e.prices_after, e.tag)
        for e in log.events
    ]
    alloc, bids, orders, initial, events, capped = brute_stealing(ref_vals, init, **kw)
    assert log.initial_alloc == tuple(init)
    assert log.initial_prices == initial
    assert rows == events
    assert final == (None if capped else (alloc, bids, orders))
    assert [v.ledger.snapshot() for v in vals] == [v.ledger.snapshot() for v in ref_vals]


@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(ORDERING_POLICIES))
@settings(max_examples=150, deadline=None)
def test_int_stealing_matches_the_fraction_reference(seed, policy):
    kinds = FAMILIES + ("marginal", "erased")
    vals, init, _ = random_instance(seed, kinds)
    ref_vals, _, _ = random_instance(seed, kinds)
    # XOS bidders need not settle: compare the first 40 steals then
    run_both(vals, ref_vals, init, run_iterative_stealing, policy=policy, step_cap=40)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_bid_and_steal_faces_match_the_fraction_reference(seed):
    kinds = FAMILIES + ("marginal", "erased")
    vals, alloc, rng = random_instance(seed, kinds)
    ref_vals, _, _ = random_instance(seed, kinds)
    m = vals[0].m
    # arbitrary item orders, owned items not necessarily first
    orders = [rng.sample(range(m), m) for _ in vals]
    assert compute_bids(vals, alloc, orders) == brute_bids(ref_vals, alloc, orders)
    # bids of any denominator, near the marginals so that both outcomes occur
    bids = [[Fraction(rng.randint(0, 12), rng.randint(1, 5)) for _ in range(m)] for _ in vals]
    assert find_steal(vals, alloc, bids) == brute_find_steal(ref_vals, alloc, bids)
    top = {j: [i for i in range(len(vals)) if rng.random() < 0.5] for j in range(m)}
    oracles, D = int_oracles(vals)
    ledgers = [v.ledger for v in vals]
    rows = [[D * b for b in row] for row in bids]
    masks = [mask_of(S) for S in alloc]
    assert steal_search(oracles, ledgers, masks, rows, top) == brute_find_steal(
        ref_vals, alloc, bids, top
    )
    assert [v.ledger.snapshot() for v in vals] == [v.ledger.snapshot() for v in ref_vals]


def test_stealing_runs_above_the_table_cap():
    # additive families sum blocks of stored weights; XOS and coverage
    # bidders use the base oracle, their exact Fraction values: none builds
    # a 2^m table
    m = TABLE_M_CAP + 2
    pool = (frozenset(range(m)), frozenset(), frozenset())

    def instance(kinds):
        rng = seeded(22)
        return [random_bidder(rng, kind, m) for kind in kinds]

    for kinds in (("additive", "additive", "budget"), ("budget", "budget", "budget"),
                  ("xos", "coverage", "additive")):
        vals, ref_vals = instance(kinds), instance(kinds)
        run_both(vals, ref_vals, pool, run_iterative_stealing)
    vals = instance(("budget", "budget", "budget"))
    assert run_budget_additive_stealing(vals, pool).log.steals() > 0
    run = top_steal(instance(("additive", "budget", "xos")), pool, t=3)
    assert find_steal(instance(("additive", "budget", "xos")), run.alloc, run.bids) is None
