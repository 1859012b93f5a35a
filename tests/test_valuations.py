import importlib
import math
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspeq
from conftest import (
    brute_additive_value,
    brute_better_demand,
    brute_budget_additive_value,
    brute_cheapest_subsets,
    brute_coverage_table,
    brute_coverage_value,
    brute_demand,
    brute_mask_sums,
    brute_set_pair_value,
    brute_xos_value,
    random_additive,
    random_budget_additive,
    random_coverage,
    random_coverage_edges,
    random_submodular_table,
    random_table,
    random_weights,
    seeded,
)
from sspeq import valuations
from sspeq.hardness import SensitiveValuation
from sspeq.money import scale_to_ints
from sspeq.reductions import SetPairSystem, SetPairValuation
from sspeq.stealing import int_oracles
from sspeq.valuations import (
    EXHAUSTIVE_DEMAND_CAP,
    TABLE_M_CAP,
    VERIFY_CAP,
    AdditiveValuation,
    BudgetAdditiveValuation,
    CapabilityError,
    CoverageValuation,
    DomainError,
    TableValuation,
    Valuation,
    XOSExplicitValuation,
    better_demand,
    bundle_of,
    cheapest_subsets,
    check_clause,
    lane_bytes,
    lanes_of,
    mask_of,
    packed_sums,
    subset_sums,
    sum_oracle,
    unpack_lanes,
    valuation_from_json,
    verify_class,
)


def test_mask_round_trip():
    assert mask_of({0, 2, 5}) == 0b100101
    assert bundle_of(0b100101) == frozenset({0, 2, 5})


def test_better_demand_prefers_profit_then_size_then_lex():
    assert better_demand(Fraction(2), 0b11, Fraction(1), 0)
    assert better_demand(Fraction(1), 0b1000, Fraction(1), 0b11)
    assert better_demand(Fraction(1), 0b101, Fraction(1), 0b1001)
    assert not better_demand(Fraction(1), 0b1001, Fraction(1), 0b101)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mask_tie_rule_matches_the_frozenset_reference(data):
    m = data.draw(st.integers(1, 12))
    a = data.draw(st.integers(0, (1 << m) - 1))
    if data.draw(st.booleans()):  # a rival of the same size
        b = mask_of(data.draw(st.permutations(range(m)))[: a.bit_count()])
    else:
        b = data.draw(st.integers(0, (1 << m) - 1))
    profit_a, profit_b = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    want = brute_better_demand(profit_a, bundle_of(a), profit_b, bundle_of(b))
    assert better_demand(profit_a, a, profit_b, b) == want


@given(st.lists(st.integers(0, 3), max_size=9))
@settings(max_examples=200, deadline=None)
def test_cheapest_subsets_match_the_sorted_combinations(costs):
    # costs in 0..3 make ties common, so the index-vector tie rule is exercised
    order = sorted(range(len(costs)), key=costs.__getitem__)
    for k in range(len(costs) + 2):
        assert list(cheapest_subsets(costs, k, order)) == brute_cheapest_subsets(costs, k)


def test_additive_basics():
    v = AdditiveValuation(3, (3, 1, 2))
    assert v.value({0, 2}) == 5
    assert v.demand((2, 2, 2)) == {0}
    assert v.xos_clause({1, 2}) == {1: Fraction(1), 2: Fraction(2)}


def test_budget_additive_values_and_clause():
    v = BudgetAdditiveValuation(2, 3, (2, 2))
    assert v.value({0}) == 2
    assert v.value({0, 1}) == 3
    assert v.xos_clause({0, 1}) == {0: Fraction(2), 1: Fraction(1)}
    ok, _ = verify_class(v, "submodular")
    assert ok


def test_table_rejects_non_monotone():
    with pytest.raises(DomainError):
        TableValuation(2, [0, 2, 1, 1])


def test_table_rejects_non_monotone_at_m_15():
    m = 15
    values = [Fraction(5)] * (1 << m)
    values[0], values[0b11] = 0, 2
    with pytest.raises(DomainError, match=r"not monotone at \[0\] \+ item 1"):
        TableValuation(m, values)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_monotone_check_names_the_first_planted_drop(seed):
    rng = seeded(seed)
    m = rng.randint(1, 7)
    values = random_table(rng, m)
    for _ in range(rng.randint(0, 2)):
        t = rng.randrange(1, 1 << m)
        values[t] -= Fraction(rng.randint(1, 3), 2)
    drops = [
        (mask, j)
        for mask in range(1 << m)
        for j in range(m)
        if not mask >> j & 1 and values[mask] > values[mask | (1 << j)]
    ]
    ok, witness = verify_class(TableValuation(m, values, validate=False), "monotone")
    if not drops:
        assert ok and witness is None
    else:
        mask, j = drops[0]
        assert not ok and (witness["S"], witness["item"]) == (sorted(bundle_of(mask)), j)


def test_table_rejects_nonzero_empty():
    with pytest.raises(DomainError):
        TableValuation(1, [1, 2])


def test_squared_cardinality_is_not_submodular():
    sizes = [bin(mask).count("1") for mask in range(8)]
    v = TableValuation(3, [s * s for s in sizes])
    ok, witness = verify_class(v, "submodular")
    assert not ok
    ok, _ = verify_class(v, "monotone")
    assert ok


def test_coverage_matches_brute_table():
    edges = [(0, 1, Fraction(3)), (1, 2, Fraction(1)), (0, 3, Fraction(2))]
    v = CoverageValuation(4, edges)
    table = brute_coverage_table(4, edges)
    for mask in range(16):
        assert v.value(bundle_of(mask)) == table[mask]
    ok, _ = verify_class(v, "submodular")
    assert ok


def test_coverage_rejects_self_loop():
    with pytest.raises(DomainError):
        CoverageValuation(2, [(1, 1, 1)])


def test_xos_explicit_value_and_clause():
    v = XOSExplicitValuation(2, [(2, 0), (1, 1)])
    assert v.value({0}) == 2
    assert v.value({0, 1}) == 2
    clause = v.xos_clause({0, 1})
    assert sum(clause.values()) == 2
    assert v.xos_clause({1}) == {1: 1}
    ok, _ = verify_class(v, "xos")
    assert ok


def test_default_clause_is_legal_for_submodular():
    rng = seeded(11)
    for _ in range(20):
        v = random_submodular_table(rng, 4)
        for mask in range(16):
            S = bundle_of(mask)
            ok, problem = check_clause(v, S, v.xos_clause(S))
            assert ok, problem


def test_clause_checker_catches_overshoot():
    v = AdditiveValuation(2, (1, 1))
    ok, problem = check_clause(v, {0}, {0: Fraction(2)})
    assert not ok
    assert problem


@pytest.mark.parametrize("v", [TableValuation(2, [0, 1, 1, 2]), AdditiveValuation(2, (1, 1))])
def test_check_clause_rejects_a_bundle_out_of_range(v):
    # an index past the table, or a bit the additive oracle would drop
    with pytest.raises(DomainError, match="not within 0..1"):
        check_clause(v, {5}, {5: 1})
    with pytest.raises(DomainError, match="not within 0..1"):
        check_clause(v, {0, 5}, {0: 1})


def test_verify_class_additive():
    assert verify_class(AdditiveValuation(3, (1, 2, 3)), "additive")[0]
    v = BudgetAdditiveValuation(2, 1, (1, 1))
    assert not verify_class(v, "additive")[0]


def test_xos_verifier_accepts_and_rejects():
    v = TableValuation(2, [0, 1, 1, Fraction(3, 2)])
    assert verify_class(v, "subadditive")[0]
    assert verify_class(v, "xos")[0]
    # all-or-nothing: no clause can reach v(full) while staying under v on singles
    w = TableValuation(2, [0, 0, 0, 1])
    assert not verify_class(w, "xos")[0]


def test_json_round_trip_all_kinds():
    rng = seeded(5)
    vs = [
        AdditiveValuation(3, (Fraction(1, 2), 2, 0)),
        BudgetAdditiveValuation(3, Fraction(5, 2), (1, 2, 3)),
        TableValuation(2, [0, 1, 1, Fraction(3, 2)]),
        XOSExplicitValuation(2, [(1, 0), (Fraction(1, 2), Fraction(1, 2))]),
        CoverageValuation(3, [(0, 1, Fraction(2, 3)), (1, 2, 1)]),
    ]
    for v in vs:
        w = valuation_from_json(v.to_json())
        assert type(w) is type(v)
        for mask in range(1 << v.m):
            S = bundle_of(mask)
            assert w.value(S) == v.value(S)


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        valuation_from_json({"kind": "mystery", "m": 2})


def test_ledger_counts_queries():
    v = AdditiveValuation(2, (1, 2))
    v.value({0})
    v.value({1})
    v.marginal(0, {1})
    v.demand((0, 0))
    v.xos_clause({0, 1})
    assert v.ledger.snapshot() == {"value": 4, "demand": 1, "xos": 1}
    assert v.ledger.total() == 6


def test_demand_rejects_bad_prices():
    v = AdditiveValuation(2, (1, 2))
    with pytest.raises(DomainError):
        v.demand((1,))
    with pytest.raises(DomainError):
        v.demand((-1, 0))


def test_check_prices_scales_once_to_the_least_denominator():
    v = AdditiveValuation(3, (1, 2, 3))
    assert v._check_prices((Fraction(1, 2), 3, "2/6")) == ([3, 18, 2], 6)
    assert v._check_prices((0, 0, 0)) == ([0, 0, 0], 1)
    for bad in ((1, 2), (1, 2, 3, 4), (0, Fraction(-1, 3), 0)):
        with pytest.raises(DomainError):
            v._check_prices(bad)
    with pytest.raises(TypeError):
        v._check_prices((0, 1.5, 0))


def additive_bidders(rng, m):
    """One additive bidder and three budget-additive bidders on its item
    values: the budget equals a random bundle's sum (a tie), is the total
    (never reached), or a fraction of it (reached once enough items pay)."""
    vals = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(m)]
    total = sum(vals, Fraction(0))
    tie = sum((x for x in vals if rng.random() < 0.5), Fraction(0))
    budgets = (tie, total, total / rng.randint(2, 5))
    return [AdditiveValuation(m, vals)] + [BudgetAdditiveValuation(m, b, vals) for b in budgets]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_int_demand_entries_match_brute(seed):
    # int prices at a denominator that is often not the least one, so the
    # entries rescale; some prices equal the item value, a zero-gain item
    rng = seeded(seed)
    m = rng.randint(1, 7)
    bidders = additive_bidders(rng, m)
    D = rng.choice([1, 2, 3, 5, 12, 24, 36])
    p = [rng.randint(0, 9 * D) for _ in range(m)]
    for j, x in enumerate(bidders[0].item_values):
        if rng.random() < 0.3 and (x * D).denominator == 1:
            p[j] = int(x * D)
    prices = [Fraction(x, D) for x in p]
    for v in bidders:
        assert bundle_of(v._demand(p, D)) == brute_demand(v, prices)[0]
        assert v.ledger.demand == 0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_budget_additive_demand_matches_brute(seed):
    rng = seeded(seed)
    m = rng.randint(2, 6)
    v = random_budget_additive(rng, m)
    prices = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(m)]
    want, want_profit = brute_demand(v, prices)
    got = v.demand(prices)
    assert got == want
    assert v.value(got) - sum((prices[j] for j in got), Fraction(0)) == want_profit


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_table_demand_matches_brute(seed):
    rng = seeded(seed)
    m = rng.randint(2, 5)
    v = random_submodular_table(rng, m)
    prices = [Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(m)]
    want, _ = brute_demand(v, prices)
    assert v.demand(prices) == want


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_coverage_value_table_matches_brute(data):
    # m = 1 has no edges; zero weights and parallel edges (a drawn edge
    # repeated, either way round) come up often, and so do weights past
    # 2^64, whose tables are built on lanes of several 64-bit words
    m = data.draw(st.integers(1, 7))
    weight = st.one_of(st.integers(0, 6), st.integers(0, 1 << 70))
    edge = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), weight,
                     st.integers(1, 6)).filter(lambda e: e[0] != e[1])
    edges = [(u, v, Fraction(k, d)) for u, v, k, d in data.draw(st.lists(edge, max_size=2 * m))]
    if edges and data.draw(st.booleans()):
        u, v, w = data.draw(st.sampled_from(edges))
        edges.append((v, u, w))
    ints, D = CoverageValuation(m, edges).value_table()
    assert D > 0
    assert [Fraction(x, D) for x in ints] == brute_coverage_table(m, edges)


def test_coverage_value_table_is_built_once_and_copied(monkeypatch):
    edges = [(0, 1, Fraction(3, 2)), (1, 0, Fraction(1, 3)), (2, 3, Fraction(0)), (1, 3, 2)]
    v = CoverageValuation(4, edges)
    first, _ = v.value_table()

    def no_rebuild(values):
        raise AssertionError("the coverage table was built again")

    monkeypatch.setattr(valuations, "scale_to_ints", no_rebuild)
    first[-1] += 1
    (again, D), (other, _) = v.value_table(), v.value_table()
    assert again is not other
    assert [Fraction(x, D) for x in again] == brute_coverage_table(4, edges)
    assert v.ledger.total() == 0


_SUM_WEIGHT = st.one_of(
    st.sampled_from([0, -1, 1, 2**64, -(2**64) - 1]), st.integers(-(2**70), 2**70)
)


@given(st.lists(_SUM_WEIGHT, max_size=12))
@settings(max_examples=80, deadline=None)
def test_subset_sums_matches_per_mask_sums(weights):
    want = [sum(w for b, w in enumerate(weights) if t >> b & 1) for t in range(1 << len(weights))]
    assert subset_sums(weights) == want


@given(st.lists(_SUM_WEIGHT, max_size=10), st.sampled_from([0, 1, 2**64]))
@settings(max_examples=80, deadline=None)
def test_packed_sums_holds_each_mask_sum_in_its_lane(weights, extra):
    # negative weights, zeros, no weights, entries past 2^64 and a nonzero
    # base, which covers the negative weights (as OPT's price rows use it)
    base = extra - sum(w for w in weights if w < 0)
    want = brute_mask_sums(weights, base)
    nbytes = lane_bytes(max(want))
    assert unpack_lanes(packed_sums(weights, nbytes, base), nbytes, len(want)) == want


def brute_cases(rng, m, with_table=False):
    """(valuation, brute value of a bundle) for every int-oracle family of
    `sspeq.valuations` and for set-pair, at m items; the table family only
    on request, as its brute is its own 2^m list."""
    items, clauses = random_weights(rng, m), [random_weights(rng, m) for _ in range(3)]
    budget = Fraction(rng.randint(0, 30), 7)
    edges = random_coverage_edges(rng, m)
    halves = (frozenset(range(0, m, 2)), frozenset(range(1, m, 2)))
    system = SetPairSystem(m, [(frozenset({0}), frozenset({m - 1})), halves])
    flags, player = (1, rng.randint(0, 1)), rng.randint(0, 1)
    cases = [
        (AdditiveValuation(m, items), lambda S: brute_additive_value(items, S)),
        (BudgetAdditiveValuation(m, budget, items),
         lambda S: brute_budget_additive_value(budget, items, S)),
        (XOSExplicitValuation(m, clauses), lambda S: brute_xos_value(clauses, S)),
        (CoverageValuation(m, edges), lambda S: brute_coverage_value(edges, S)),
        (SetPairValuation(system, flags, player),
         lambda S: brute_set_pair_value(system, flags, player, S)),
    ]
    if with_table:
        table = random_table(rng, m)
        cases.append((TableValuation(m, table), lambda S: table[mask_of(S)]))
    return cases


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_value_table_matches_value_mask(seed):
    # both faces against the direct definitions, not against each other
    rng = seeded(seed)
    m = rng.randint(1, 5)
    for v, brute in brute_cases(rng, m, with_table=True):
        ints, D = v.value_table()
        want = [brute(bundle_of(t)) for t in range(1 << m)]
        assert [Fraction(x, D) for x in ints] == [v._value_mask(t) for t in range(1 << m)] == want


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_int_scaled_values_match_direct_definitions(seed):
    rng = seeded(seed)
    m = rng.randint(1, 6)
    items = random_weights(rng, m)
    # k + d/6 with d in 1..5 is never an integer
    budget = rng.randint(0, 30) + Fraction(rng.randint(1, 5), 6)
    clauses = [random_weights(rng, m) for _ in range(rng.randint(1, 3))]
    cases = (
        (AdditiveValuation(m, items), lambda S: brute_additive_value(items, S)),
        (
            BudgetAdditiveValuation(m, budget, items),
            lambda S: brute_budget_additive_value(budget, items, S),
        ),
        (XOSExplicitValuation(m, clauses), lambda S: brute_xos_value(clauses, S)),
    )
    for v, brute in cases:
        for mask in range(1 << m):
            S = frozenset(j for j in range(m) if mask >> j & 1)
            assert v.value(S) == brute(S), (v.kind, sorted(S))
        assert v.ledger.value == 1 << m


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_additive_value_tables_equal_the_base_build(seed):
    rng = seeded(seed)
    m = rng.randint(1, 10)
    items = random_weights(rng, m)
    total = sum(items, Fraction(0))
    # a budget above the total is never reached, so its denominator drops out
    budget = rng.choice([total + Fraction(1, 7), Fraction(rng.randint(0, 40), rng.randint(1, 6))])
    for v in (AdditiveValuation(m, items), BudgetAdditiveValuation(m, budget, items)):
        assert v.value_table() == Valuation.value_table(v), v.kind


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_every_family_hands_out_the_base_lanes(seed):
    # kept lanes (tables, checked or not, and coverage, also past 2^64) and
    # the base build of every other family equal lanes_of(*value_table());
    # the keeping families hand out one ints list, and a sensitive
    # valuation's lanes follow its bumps
    rng = seeded(seed)
    m = rng.randint(1, 5)
    unchecked = TableValuation(m, random_table(rng, m, monotone=False), validate=False)
    wide = CoverageValuation(m, [(u, v, w * 2**64) for u, v, w in random_coverage_edges(rng, m)])
    cases = [v for v, _ in brute_cases(rng, m, with_table=True)] + [unchecked, wide]
    for v in cases:
        assert v.table_lanes() == Valuation.table_lanes(v) == lanes_of(*v.value_table()), v.kind
        if isinstance(v, (TableValuation, CoverageValuation)):
            assert v.table_lanes()[0] is v.table_lanes()[0], v.kind
    sv = SensitiveValuation(7, g=1, h=2)
    before = sv.table_lanes()
    sv.add_bump(0b1111, Fraction(1, 8))
    assert sv.table_lanes() == lanes_of(*sv.value_table()) != before


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_int_oracles_share_one_denominator(seed):
    rng = seeded(seed)
    m = rng.randint(1, 7)
    cases = brute_cases(rng, m, with_table=True)
    rng.shuffle(cases)
    vals = [v for v, _ in cases]
    oracles, D = int_oracles(vals)
    for (v, brute), f in zip(cases, oracles):
        g, d = v.int_oracle()
        assert D % d == 0, v.kind
        for mask in range(1 << m):
            assert Fraction(g(mask), d) == Fraction(f(mask), D) == brute(bundle_of(mask)), v.kind
        assert v.ledger.total() == 0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_int_clause_is_the_scaled_xos_clause(seed):
    rng = seeded(seed)
    m = rng.randint(1, 6)
    for v in (
        TableValuation(m, random_table(rng, m)),
        random_additive(rng, m, den=6),
        XOSExplicitValuation(m, [random_weights(rng, m) for _ in range(3)]),
    ):
        for mask in range(1 << m):
            row, D = v._int_clause(mask)
            clause = v.xos_clause(bundle_of(mask))
            assert [Fraction(x, D) for x in row] == [clause.get(j, 0) for j in range(m)], v.kind
            # at the weights' least common denominator
            assert D == math.lcm(1, *(w.denominator for w in clause.values()))
        assert v.ledger.snapshot() == {"value": 0, "demand": 0, "xos": 1 << m}


@pytest.mark.parametrize("m", [1, 7, 8, 9, 12, 16, 17, 22, 25, 40])
def test_sum_oracle_matches_the_bit_sum(m):
    # 1, 2, 3 and 5 blocks, of sizes 6 to 8
    rng = seeded(m)
    weights = [rng.randint(0, 50) for _ in range(m)]
    cap = rng.randint(0, 25 * m)
    plain, capped = sum_oracle(weights), sum_oracle(weights, cap)
    for mask in [0, (1 << m) - 1, *(rng.getrandbits(m) for _ in range(300))]:
        total = sum(w for j, w in enumerate(weights) if mask >> j & 1)
        assert (plain(mask), capped(mask)) == (total, min(cap, total))


def test_int_oracles_build_no_table(monkeypatch):
    # above the table cap, where a 2^m table would take minutes
    m = TABLE_M_CAP + 2
    rng = seeded(3)

    def no_table(self):
        raise AssertionError(f"{self.kind} built a 2^{self.m} table")

    for v, brute in brute_cases(rng, m):
        monkeypatch.setattr(type(v), "value_table", no_table)
        f, D = v.int_oracle()
        for mask in [0, (1 << m) - 1, 0b11, *(rng.getrandbits(m) for _ in range(200))]:
            assert f(mask) == D * brute(bundle_of(mask)), v.kind


@pytest.mark.parametrize("validate", [True, False])
def test_table_valuation_scales_its_entries_once(validate, monkeypatch):
    m = 5
    values = random_table(seeded(5), m)
    v = TableValuation(m, values, validate=validate)
    want = scale_to_ints(values)

    def no_scaling(values):
        raise AssertionError("the table entries were scaled again")

    monkeypatch.setattr(valuations, "scale_to_ints", no_scaling)
    table = v.value_table()
    assert table == want
    f, D = v.int_oracle()
    assert ([f(t) for t in range(1 << m)], D) == want
    # each call returns its own list
    table[0][-1] += 1
    assert v.value_table() == want
    assert f((1 << m) - 1) == want[0][-1]


def _library_valuation_classes():
    for info in pkgutil.iter_modules(sspeq.__path__):
        importlib.import_module(f"sspeq.{info.name}")
    found, todo = [], [Valuation]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("sspeq."):
                found.append(sub)
    return found


def test_no_family_defines_a_value_method():
    classes = _library_valuation_classes()
    assert {c.__name__ for c in classes} >= {
        "TableValuation",
        "AdditiveValuation",
        "BudgetAdditiveValuation",
        "XOSExplicitValuation",
        "CoverageValuation",
        "MarginalValuation",
        "ErasedValuation",
        "GrayValuation",
        "SetPairValuation",
        "SensitiveValuation",
    }
    for cls in [Valuation, *classes]:
        assert "_value" not in vars(cls), cls.__name__
    # every family stores its int oracle when built, and the base derives
    # both value methods from it
    for cls in classes:
        assert not {"_value_mask", "int_oracle"} & set(vars(cls)), cls.__name__


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_coverage_demand_matches_brute(seed):
    rng = seeded(seed)
    m = rng.randint(1, 6)
    v = random_coverage(rng, m, den=6)
    prices = [Fraction(rng.randint(0, 8), rng.randint(1, 5)) for _ in range(m)]
    want, _ = brute_demand(v, prices)
    assert v.demand(prices) == want


def test_exhaustive_demand_cap_boundary():
    m = EXHAUSTIVE_DEMAND_CAP
    path = [(j, j + 1, Fraction(1, 2)) for j in range(m)]
    v = CoverageValuation(m, path[: m - 1])
    # every edge is worth more than a vertex costs, so the demand is a minimum
    # vertex cover of the path; of the two, the even one is lexicographically first
    assert v.demand([Fraction(1, 3)] * m) == frozenset(range(0, m - 1, 2))
    w = CoverageValuation(m + 1, path)
    with pytest.raises(CapabilityError):
        w.demand([0] * (m + 1))
    # a refused demand computed nothing, so the ledger does not count it
    assert w.ledger.demand == 0


def test_budget_additive_node_cap_leaves_the_ledger_alone(monkeypatch):
    # ten items worth 1 each against a budget of 5 need far more than 20 nodes
    monkeypatch.setattr(valuations, "BB_NODE_CAP", 20)
    v = BudgetAdditiveValuation(10, 5, [1] * 10)
    with pytest.raises(CapabilityError, match="node cap"):
        v.demand([0] * 10)
    assert v.ledger.demand == 0


@pytest.mark.parametrize("cls", sorted(VERIFY_CAP))
def test_verify_class_cap_boundary(cls):
    cap = VERIFY_CAP[cls]
    # additive valuations belong to every class
    assert verify_class(AdditiveValuation(cap, range(1, cap + 1)), cls) == (True, None)
    with pytest.raises(CapabilityError, match=f"m={cap}"):
        verify_class(AdditiveValuation(cap + 1, range(1, cap + 2)), cls)


def test_exhaustive_clause_check_cap_boundary():
    m = EXHAUSTIVE_DEMAND_CAP
    path = [(j, j + 1, Fraction(1, 2)) for j in range(m)]
    v = CoverageValuation(m, path[: m - 1])
    assert check_clause(v, {0, 2}, {0: Fraction(1, 2), 2: 1}) == (True, None)
    assert check_clause(v, {0, 2}, {0: 1, 2: Fraction(1, 2)}) == (
        False,
        {"reason": "clause exceeds value", "T": [0], "clause": 1, "value": Fraction(1, 2)},
    )
    w = CoverageValuation(m + 1, path)
    assert check_clause(w, {0, 2}, {0: Fraction(1, 2), 2: 1}, exhaustive=False) == (True, None)
    with pytest.raises(CapabilityError, match=f"m={m}"):
        check_clause(w, {0, 2}, {0: Fraction(1, 2), 2: 1})


def test_table_valuation_cap_boundary():
    zero = Fraction(0)
    assert TableValuation(TABLE_M_CAP, [zero] * (1 << TABLE_M_CAP)).m == TABLE_M_CAP
    # the cap is checked before the values are read
    with pytest.raises(CapabilityError, match=f"m={TABLE_M_CAP}"):
        TableValuation(TABLE_M_CAP + 1, None)


def test_xos_check_rejects_negative_values():
    v = TableValuation(2, [0, -1, 1, 1], validate=False)
    with pytest.raises(DomainError):
        verify_class(v, "xos")
