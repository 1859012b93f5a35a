"""Iterative stealing: marginal bids, single-item steals, ordering policies.

Each bidder keeps a full ordering of the items in which its owned items form
a prefix. Bids on owned items are marginals against the preceding owned items;
bids elsewhere are zero. A steal moves one item to a bidder whose marginal
exceeds the standing bid, after which bids are recomputed.

The procedures run on each bidder's int value oracle at one common
denominator D (`int_oracles`): bundles are masks, and bids, marginals,
standing prices and welfare are ints scaled by D, for every family.
Fractions appear only in results. `compute_bids` and `find_steal` are the
Fraction faces of the two kernels. Every ledger counts as the query API
would: two value queries per bid and per marginal tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .money import Money, checked_iter, money_gcd, money_rows
from .valuations import (
    BudgetAdditiveValuation,
    CapabilityError,
    DomainError,
    bundle_of,
    checked_count,
    checked_mask,
    iter_bits,
    iter_submasks,
)
from .auction import allocation_masks, check_allocation, check_bids, item_count, prices_from_bids

ORDERING_POLICIES = ("stolen-last", "static")
STEAL_BOUND_M_CAP = 12


def owner_first(alloc, m: int):
    """Each bidder's item order: its owned items ascending, then the rest."""
    return [sorted(S) + sorted(set(range(m)) - set(S)) for S in alloc]


def int_oracles(valuations):
    """(oracles, D): each bidder's `int_oracle` at one common denominator D."""
    built = [v.int_oracle() for v in valuations]
    D = math.lcm(*(d for _, d in built))
    return [f if d == D else _times(f, D // d) for f, d in built], D


def _times(f, k: int):
    return lambda mask: k * f(mask)


def bid_rows(oracles, ledgers, masks, orders, m: int) -> list:
    """Int marginal bids along each bidder's item order, zero off its bundle
    mask. The bundle's value is carried from bid to bid, and each bid counts
    two value queries."""
    rows = []
    for f, ledger, mask, order in zip(oracles, ledgers, masks, orders):
        row = [0] * m
        seen, prev = 0, f(0)
        for j in order:
            bit = 1 << j
            if mask & bit:
                seen |= bit
                cur = f(seen)
                row[j] = cur - prev
                prev = cur
        ledger.value += 2 * seen.bit_count()
        rows.append(row)
    return rows


def steal_search(oracles, ledgers, masks, rows, top=None):
    """Lexicographically smallest (thief, victim, item) whose int marginal
    strictly beats the victim's bid on the item, or None. With `top`, a map
    from item to the bidders allowed to take it, other thieves are skipped.
    Each marginal tested counts two value queries."""
    n = len(oracles)
    for thief in range(n):
        f, own = oracles[thief], masks[thief]
        base = f(own)
        tests = 0
        for victim in range(n):
            if victim == thief:
                continue
            row = rows[victim]
            for j in iter_bits(masks[victim]):
                if top is not None and thief not in top[j]:
                    continue
                tests += 1
                if f(own | 1 << j) - base > row[j]:
                    ledgers[thief].value += 2 * tests
                    return (thief, victim, j)
        ledgers[thief].value += 2 * tests
    return None


def compute_bids(valuations, alloc, orders):
    """Marginal bids along each bidder's item order, a permutation of
    0..m-1, zero off the owned bundle."""
    m = item_count(valuations)
    masks = allocation_masks(alloc, len(valuations), m)
    orders = tuple(checked_iter(orders, "orders must be a list of item orders"))
    if len(orders) != len(masks) or any(checked_mask(o, m) != (1 << m) - 1 or len(o) != m for o in orders):
        raise DomainError(f"need one order per bidder, each a permutation of 0..{m - 1}")
    oracles, D = int_oracles(valuations)
    ledgers = [v.ledger for v in valuations]
    return money_rows(bid_rows(oracles, ledgers, masks, orders, m), D)


def find_steal(valuations, alloc, bids):
    """Lexicographically smallest (thief, victim, item) with a strictly
    profitable single-item steal, or None."""
    masks = allocation_masks(alloc, m=item_count(valuations), n=len(valuations))
    bids = check_bids(bids, n=len(masks), m=valuations[0].m)
    oracles, D = int_oracles(valuations)
    ledgers = [v.ledger for v in valuations]
    rows = [[D * b for b in row] for row in bids]
    return steal_search(oracles, ledgers, masks, rows)


@dataclass
class StealEvent:
    thief: int
    victim: int
    item: int
    welfare_before: Money
    welfare_after: Money
    prices_after: tuple
    tag: str = None


@dataclass
class StealLog:
    initial_alloc: tuple
    initial_prices: tuple
    events: list = field(default_factory=list)

    def steals(self) -> int:
        return len(self.events)


@dataclass
class StealRun:
    alloc: tuple
    bids: tuple
    orders: list
    log: StealLog


class StealCapExceeded(Exception):
    def __init__(self, cap, log):
        super().__init__(f"stealing did not settle within {cap} steps")
        self.cap = cap
        self.log = log


def run_iterative_stealing(
    valuations,
    init_alloc,
    policy: str = "stolen-last",
    step_cap: int = 100_000,
    classifier=None,
) -> StealRun:
    """Run single-item stealing to quiescence. The optional classifier,
    called as classifier(valuations, prices, steal) with the standing
    prices, tags each event from the pre-steal state."""
    if policy not in ORDERING_POLICIES:
        raise DomainError(f"policy must be one of {ORDERING_POLICIES}")
    m = item_count(valuations)
    masks = allocation_masks(init_alloc, len(valuations), m)
    alloc = tuple(map(bundle_of, masks))
    orders = owner_first(alloc, m)
    oracles, D = int_oracles(valuations)
    ledgers = [v.ledger for v in valuations]
    rows = bid_rows(oracles, ledgers, masks, orders, m)
    tops = list(map(max, zip(*rows)))
    prices = tuple(Fraction(p, D) for p in tops)
    welfare = Fraction(sum(f(mask) for f, mask in zip(oracles, masks)), D)
    log = StealLog(alloc, prices)
    while True:
        steal = steal_search(oracles, ledgers, masks, rows)
        if steal is None:
            return StealRun(tuple(map(bundle_of, masks)), money_rows(rows, D), orders, log)
        if len(log.events) >= step_cap:
            raise StealCapExceeded(step_cap, log)
        thief, victim, item = steal
        tag = classifier(valuations, prices, steal) if classifier else None
        if policy == "stolen-last":
            # the item closes the thief's owned prefix and goes last for the victim
            orders[thief].remove(item)
            orders[thief].insert(masks[thief].bit_count(), item)
            orders[victim].remove(item)
            orders[victim].append(item)
        masks[thief] |= 1 << item
        masks[victim] ^= 1 << item
        rows = bid_rows(oracles, ledgers, masks, orders, m)
        # a steal moves few standing prices: keep the Fraction of every other
        last, tops = tops, list(map(max, zip(*rows)))
        prices = tuple(x if a == b else Fraction(b, D) for x, a, b in zip(prices, last, tops))
        before, welfare = welfare, Fraction(sum(f(mask) for f, mask in zip(oracles, masks)), D)
        log.events.append(StealEvent(thief, victim, item, before, welfare, prices, tag))


# -- budget-additive bookkeeping ----------------------------------------------


def _loose_tight(v, j: int, price) -> str:
    """The tag of item j held by v at its standing price."""
    if price < v._value_mask(1 << j):
        return "strongly_loose" if price == 0 else "loose"
    return "tight"


def classify_loose_tight(valuations, alloc, bids):
    """Per owned item: 'tight', 'loose', or 'strongly_loose' (price zero).

    An owned item is loose when its standing price sits strictly below the
    owner's singleton value.
    """
    for v in checked_iter(valuations, "valuations must be a list of bidders"):
        if not isinstance(v, BudgetAdditiveValuation):
            raise DomainError("loose/tight classification needs budget-additive bidders")
    m = item_count(valuations)
    alloc = check_allocation(alloc, len(valuations), m)
    prices = prices_from_bids(check_bids(bids, len(valuations), m))
    return {j: _loose_tight(valuations[i], j, prices[j]) for i, S in enumerate(alloc) for j in S}


def budget_additive_steal_bound(n: int, m: int) -> int:
    n, m = checked_count(n, "n"), checked_count(m, "m")
    return (n * m + 1) * (n * m) + m + n * m


def run_budget_additive_stealing(valuations, init_alloc, step_cap=None) -> StealRun:
    """Stolen-goes-last stealing for budget-additive bidders with loose/tight
    tags on every event; exceeding the settlement bound raises (it would
    indicate a bug, not a hard instance)."""
    for v in checked_iter(valuations, "valuations must be a list of bidders"):
        if not isinstance(v, BudgetAdditiveValuation):
            raise DomainError("budget-additive stealing needs budget-additive bidders")
    if step_cap is None:
        step_cap = budget_additive_steal_bound(len(valuations), item_count(valuations))

    def classifier(vals, prices, steal):
        _, victim, item = steal
        return _loose_tight(vals[victim], item, prices[item])

    return run_iterative_stealing(
        valuations, init_alloc, policy="stolen-last", step_cap=step_cap, classifier=classifier
    )


# -- settlement bounds ---------------------------------------------------------


def _marginal_sets(v, items):
    """(sets, vals, D): per item of `items`, the distinct int marginals of
    adding it to each bundle avoiding it, read from one value table (vals, D)."""
    if v.m > STEAL_BOUND_M_CAP:
        raise CapabilityError(f"settlement bounds capped at m={STEAL_BOUND_M_CAP}")
    vals, D = v.value_table()
    sets = [{vals[sub | 1 << j] - vals[sub] for sub in iter_submasks(v.full_mask ^ 1 << j)}
            for j in items]
    return sets, vals, D


def marginal_diversity(v, j: int) -> int:
    """Number of distinct marginals of item j across all bundles avoiding it."""
    j = checked_mask((j,), v.m).bit_length() - 1
    return len(_marginal_sets(v, (j,))[0][0])


def pseudo_poly_steal_bound(valuations) -> int:
    """Sum over bidders and items of marginal diversity; every steal strictly
    raises some item's standing bid through that bidder's marginal set."""
    bidders = checked_iter(valuations, "valuations must be a list of bidders")
    return sum(len(s) for v in bidders for s in _marginal_sets(v, range(v.m))[0])


def granularity_steal_bound(valuations):
    """n * vmax / gcd of all positive marginal differences (None if all flat)."""
    delta = Fraction(0)
    vmax = Fraction(0)
    for v in checked_iter(valuations, "valuations must be a list of bidders"):
        sets, vals, D = _marginal_sets(v, range(v.m))
        vmax = max(vmax, Fraction(vals[v.full_mask], D))
        delta = money_gcd(delta, Fraction(math.gcd(*set().union(*sets)), D))
    if delta == 0:
        return None
    return len(valuations) * vmax / delta
