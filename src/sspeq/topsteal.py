"""Recursive equilibrium computation for instances with few competitors per item.

An item's competitors are the bidders with positive singleton value for it; an
instance is t-restricted when no item has more than t competitors. The
procedure pins items whose holder is already a top competitor (bidding the full
singleton value makes them untouchable), recurses on marginal instances, and
at the base treats two-competitor markets with plain marginal bids plus at
most one steal per pinned item. For deeper t it erases each bidder's
top-competitor items to fall to t-1.

Each level of the recursion reads its bidders' int value oracles afresh
(`stealing.int_oracles`). A pinned or erased bidder is a `MarginalValuation`
or `ErasedValuation`, which composes its base's oracle once, when it is
built, and returns it from `int_oracle`; so the recursion carries one list
of bidders. The competitor tests compare int singletons. Bids stay
Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .money import Money
from .valuations import DomainError, Valuation, as_bundle, mask_of
from .auction import check_allocation, item_count
from .stealing import compute_bids, find_steal, int_oracles, owner_first, steal_search


class TopStealDiagnostic(Exception):
    """A steal exists but no top-competitor steal does; the recursion's
    correctness argument would be violated, so fail loudly."""


class MarginalValuation(Valuation):
    """v(S | item): the base valuation conditioned on already owning item."""

    def __init__(self, base: Valuation, item: int):
        super().__init__(base.m)
        self.base = base
        self.item = item
        self.offset = base.value(frozenset({item}))
        self.ledger = base.ledger
        f, D = base.int_oracle()
        bit = 1 << item
        offset = f(bit)
        self._oracle = (lambda mask: f(mask | bit) - offset), D

    def _value_mask(self, mask):
        return self.base._value_mask(mask | (1 << self.item)) - self.offset

    def int_oracle(self):
        return self._oracle


class ErasedValuation(Valuation):
    """The base valuation blind to a fixed set of erased items."""

    def __init__(self, base: Valuation, erased):
        super().__init__(base.m)
        self.base = base
        self.erased = as_bundle(erased)
        self._emask = mask_of(self.erased)
        self.ledger = base.ledger
        f, D = base.int_oracle()
        keep = ~self._emask
        self._oracle = (lambda mask: f(mask & keep)), D

    def _value_mask(self, mask):
        return self.base._value_mask(mask & ~self._emask)

    def int_oracle(self):
        return self._oracle


def _single(v, f, j: int) -> int:
    """v's int singleton value of item j; one counted value query."""
    v.ledger.value += 1
    return f(1 << j)


def _competitors(valuations, oracles, items):
    """Per item: competitor list, top-competitor list and the top singleton
    value as an int at the oracles' denominator."""
    out = {}
    for j in sorted(items):
        singles = [(i, _single(v, f, j)) for i, (v, f) in enumerate(zip(valuations, oracles))]
        comp = [(i, x) for i, x in singles if x > 0]
        top_val = max((x for _, x in comp), default=0)
        out[j] = {
            "competitors": [i for i, _ in comp],
            "top": [i for i, x in comp if x == top_val],
            "top_value": top_val,
        }
    return out


def competitor_info(valuations, items):
    """Per item: competitor list, top-competitor list, top singleton value."""
    oracles, D = int_oracles(valuations)
    out = _competitors(valuations, oracles, items)
    for d in out.values():
        d["top_value"] = Fraction(d["top_value"], D)
    return out


def preprocess_to_competitors(valuations, alloc):
    """Move every item held by a non-competitor to its lowest-index top
    competitor (welfare-free for submodular bidders); items nobody values are
    returned as ignorable and stay put."""
    m = item_count(valuations)
    alloc = check_allocation(alloc, len(valuations), m)
    return _to_competitors(alloc, competitor_info(valuations, range(m)))


def _to_competitors(alloc, info):
    alloc = [set(S) for S in alloc]
    ignorable = set()
    for j in sorted(info):
        holder = next(i for i, S in enumerate(alloc) if j in S)
        comp = info[j]["competitors"]
        if not comp:
            ignorable.add(j)
            continue
        if holder not in comp:
            target = info[j]["top"][0]
            alloc[holder].discard(j)
            alloc[target].add(j)
    return tuple(frozenset(S) for S in alloc), frozenset(ignorable)


@dataclass
class RecursionTrace:
    case: str
    m_active: int
    t: int
    steal: tuple = None
    children: list = field(default_factory=list)

    def steals_total(self) -> int:
        own = 1 if self.steal is not None else 0
        return own + sum(c.steals_total() for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class TopStealRun:
    alloc: tuple
    bids: tuple
    trace: RecursionTrace
    steals: list


def steal_count_bound(m: int, t: int) -> int:
    if t < 1:
        raise DomainError(f"need t >= 1, got t={t}")
    return math.comb(m + t - 1, t - 1) - 1


def compose_top_item(alloc, bids, i: int, j: int, singleton_value: Money):
    """Give item j back to bidder i at a bid of its full singleton value."""
    alloc = list(alloc)
    alloc[i] = alloc[i] | {j}
    bids = [list(row) for row in bids]
    bids[i][j] = singleton_value
    return tuple(alloc), tuple(tuple(row) for row in bids)


def _restricted_bids(valuations, alloc, active):
    """Marginal bids over the active items only, ascending order."""
    sub_alloc = tuple(S & active for S in alloc)
    return compute_bids(valuations, sub_alloc, owner_first(sub_alloc, valuations[0].m)), sub_alloc


def _find_top_steal(valuations, oracles, D, alloc, bids, info):
    """Lexicographically smallest steal whose thief is a top competitor."""
    ledgers = [v.ledger for v in valuations]
    masks = [mask_of(S) for S in alloc]
    rows = [[D * b for b in row] for row in bids]
    any_steal = steal_search(oracles, ledgers, masks, rows)
    if any_steal is None:
        return None
    top = {j: d["top"] for j, d in info.items()}
    steal = steal_search(oracles, ledgers, masks, rows, top)
    if steal is None:
        raise TopStealDiagnostic(f"steal {any_steal} exists but no top-competitor steal does")
    return steal


def top_steal(valuations, init_alloc, t: int = None) -> TopStealRun:
    """Compute a no-overbidding, steal-stable state for a t-restricted instance."""
    n = len(valuations)
    m = item_count(valuations)
    if t is None:
        t = n
    if t < 2:
        raise DomainError("need t >= 2")
    alloc = check_allocation(init_alloc, n, m)
    if set().union(*alloc) != set(range(m)):
        raise DomainError("initial allocation must cover all items")
    oracles, _ = int_oracles(valuations)
    # the move and the restriction check each ask every singleton, so the
    # ledger reads as for preprocess_to_competitors then competitor_info
    alloc, _ignorable = _to_competitors(alloc, _competitors(valuations, oracles, range(m)))
    info = _competitors(valuations, oracles, range(m))
    worst = max((len(d["competitors"]) for d in info.values()), default=0)
    if worst > t:
        raise DomainError(f"instance is only {worst}-restricted, got t={t}")
    steals = []
    final_alloc, final_bids, trace = _top_steal_rec(
        list(valuations), alloc, frozenset(range(m)), t, steals
    )
    return TopStealRun(final_alloc, final_bids, trace, steals)


def _give(alloc, thief, j):
    """The allocation with item j moved to the thief."""
    return tuple((S | {j}) if i == thief else (S - {j}) for i, S in enumerate(alloc))


def _top_steal_rec(valuations, alloc, active, t, steals):
    n = len(valuations)
    m = valuations[0].m
    oracles, D = int_oracles(valuations)
    info = _competitors(valuations, oracles, active)

    if len(active) == 1:
        (j,) = active
        holder = next(i for i, S in enumerate(alloc) if j in S)
        trace = RecursionTrace("single_item", 1, t)
        if info[j]["top"] and holder not in info[j]["top"]:
            thief = info[j]["top"][0]
            steals.append((thief, holder, j))
            trace.steal = (thief, holder, j)
            alloc = _give(alloc, thief, j)
            holder = thief
        bids = [[Fraction(0)] * m for _ in range(n)]
        bids[holder][j] = Fraction(_single(valuations[holder], oracles[holder], j), D)
        return alloc, tuple(tuple(r) for r in bids), trace

    # pin an item whose holder is already a top competitor
    pin = None
    for i in range(n):
        for j in sorted(alloc[i] & active):
            if i in info[j]["top"]:
                pin = (i, j)
                break
        if pin:
            break
    if pin is not None:
        i, j = pin
        single = Fraction(_single(valuations[i], oracles[i], j), D)
        sub_vals = list(valuations)
        sub_vals[i] = MarginalValuation(valuations[i], j)
        sub_alloc = tuple(S - {j} if k == i else S for k, S in enumerate(alloc))
        out_alloc, out_bids, child = _top_steal_rec(sub_vals, sub_alloc, active - {j}, t, steals)
        alloc2, bids2 = compose_top_item(out_alloc, out_bids, i, j, single)
        trace = RecursionTrace("pin_top_item", len(active), t, children=[child])
        return alloc2, bids2, trace

    if t == 2:
        bids, sub_alloc = _restricted_bids(valuations, alloc, active)
        steal = _find_top_steal(valuations, oracles, D, sub_alloc, bids, info)
        if steal is None:
            return alloc, bids, RecursionTrace("stable_bids", len(active), t)
        thief, _, j = steal
        steals.append(steal)
        out_alloc, out_bids, child = _top_steal_rec(
            valuations, _give(alloc, thief, j), active, t, steals
        )
        trace = RecursionTrace("steal_then_recurse", len(active), t, steal=steal, children=[child])
        return out_alloc, out_bids, trace

    # t > 2: erase every bidder's top-competitor items and fall to t-1
    sub_vals = list(valuations)
    for i in range(n):
        erased = frozenset(j for j in active if i in info[j]["top"])
        if erased:
            sub_vals[i] = ErasedValuation(valuations[i], erased)
    sub_info = _competitors(sub_vals, int_oracles(sub_vals)[0], active)
    assert all(len(d["competitors"]) <= t - 1 for d in sub_info.values())
    out_alloc, out_bids, child = _top_steal_rec(sub_vals, alloc, active, t - 1, steals)
    if find_steal(valuations, tuple(S & active for S in out_alloc), out_bids) is None:
        trace = RecursionTrace("erased_stable", len(active), t, children=[child])
        return out_alloc, out_bids, trace
    steal = _find_top_steal(
        valuations, oracles, D, tuple(S & active for S in out_alloc), out_bids, info
    )
    thief, _, j = steal
    steals.append(steal)
    out_alloc2, out_bids2, child2 = _top_steal_rec(
        valuations, _give(out_alloc, thief, j), active, t, steals
    )
    trace = RecursionTrace(
        "erase_then_steal", len(active), t, steal=steal, children=[child, child2]
    )
    return out_alloc2, out_bids2, trace
