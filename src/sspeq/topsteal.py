"""Recursive equilibrium computation for instances with few competitors per item.

An item's competitors are the bidders with positive singleton value for it; an
instance is t-restricted when no item has more than t competitors. The
procedure pins items whose holder is already a top competitor (bidding the full
singleton value makes them untouchable), recurses on marginal instances, and
at the base treats two-competitor markets with plain marginal bids plus at
most one steal per pinned item. For deeper t it erases each bidder's
top-competitor items to fall to t-1.

Next to its bidders the recursion carries one int singleton row per bidder,
row[j] = D * v({j}) at the run's common denominator D (`int_oracles`), filled
by one oracle pass. A pin or an erasure wraps the bidder in a
`MarginalValuation` or `ErasedValuation`, which composes its base's int oracle
once, and rereads from it only the pinned row over the items left, or only the
erased entries. Each level's top values are the rows' column maxima. The
ledger counts the competitor scans asked for, not oracle calls: a scan charges
each bidder one value query per item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .money import Money
from .valuations import DomainError, Valuation, checked_count, checked_mask, iter_bits, mask_of
from .auction import check_allocation, item_count
from .stealing import compute_bids, find_steal, int_oracles, owner_first, steal_search


class TopStealDiagnostic(Exception):
    """A steal exists but no top-competitor steal does; the recursion's
    correctness argument would be violated, so fail loudly."""


class MarginalValuation(Valuation):
    """v(S | item): the base valuation conditioned on already owning item."""

    def __init__(self, base: Valuation, item: int):
        super().__init__(base.m)
        bit = checked_mask((item,), base.m)
        self.base = base
        self.item = bit.bit_length() - 1
        self.ledger = base.ledger
        self.ledger.value += 1  # the singleton query that fixes the offset
        f, D = base.int_oracle()
        offset = f(bit)
        self.offset = Fraction(offset, D)
        self._oracle = (lambda mask: f(mask | bit) - offset), D


class ErasedValuation(Valuation):
    """The base valuation blind to a fixed set of erased items."""

    def __init__(self, base: Valuation, erased):
        super().__init__(base.m)
        keep = ~checked_mask(erased, base.m)
        self.base = base
        self.ledger = base.ledger
        f, D = base.int_oracle()
        self._oracle = (lambda mask: f(mask & keep)), D


def _singleton_rows(valuations, asked: int):
    """(rows, D): each bidder's int singleton values at the common D, from one
    oracle pass; each bidder is charged the `asked` singleton queries."""
    oracles, D = int_oracles(valuations)
    for v in valuations:
        v.ledger.value += asked
    return [[f(1 << j) for j in range(valuations[0].m)] for f in oracles], D


def _reread(rows, i, v, D: int, items):
    """rows with bidder i's entries on `items` reread from v's oracle."""
    f, d = v.int_oracle()
    row = list(rows[i])
    for j in items:
        row[j] = D // d * f(1 << j)
    return rows[:i] + [row] + rows[i + 1:]


def _tops(rows):
    """Per item, the largest singleton value, at least 0."""
    return list(map(max, *rows, [0] * len(rows[0])))


def _top(rows, tops, j: int):
    """Item j's top competitors: the bidders whose singleton is its positive top."""
    return [i for i, row in enumerate(rows) if row[j] == tops[j] > 0]


def competitor_info(valuations, items):
    """Per item: competitor list, top-competitor list, top singleton value."""
    mask = checked_mask(items, item_count(valuations))
    rows, D = _singleton_rows(valuations, mask.bit_count())
    tops = _tops(rows)
    return {j: {"competitors": [i for i, row in enumerate(rows) if row[j] > 0],
                "top": _top(rows, tops, j), "top_value": Fraction(tops[j], D)}
            for j in iter_bits(mask)}


def preprocess_to_competitors(valuations, alloc):
    """Move every item held by a non-competitor to its lowest-index top
    competitor (welfare-free for submodular bidders); items nobody values are
    returned as ignorable and stay put, and so do items nobody holds."""
    m = item_count(valuations)
    alloc = check_allocation(alloc, len(valuations), m)
    return _to_competitors(alloc, _singleton_rows(valuations, m)[0])


def _to_competitors(alloc, rows):
    alloc = [set(S) for S in alloc]
    tops = _tops(rows)
    for j, top in enumerate(tops):
        holder = next((i for i, S in enumerate(alloc) if j in S), None)
        if top > 0 and holder is not None and rows[holder][j] <= 0:
            alloc[holder].discard(j)
            alloc[_top(rows, tops, j)[0]].add(j)
    ignorable = frozenset(j for j, top in enumerate(tops) if top <= 0)
    return tuple(frozenset(S) for S in alloc), ignorable


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
    m, t = checked_count(m, "m"), checked_count(t, "t")
    if m < 1:
        raise DomainError(f"need at least one item, got m={m}")
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


def _find_top_steal(valuations, alloc, bids, rows, tops):
    """Lexicographically smallest steal whose thief is a top competitor."""
    oracles, D = int_oracles(valuations)
    ledgers = [v.ledger for v in valuations]
    masks = [mask_of(S) for S in alloc]
    bid_ints = [[D * b for b in row] for row in bids]
    any_steal = steal_search(oracles, ledgers, masks, bid_ints)
    if any_steal is None:
        return None
    top = [_top(rows, tops, j) for j in range(len(tops))]  # read on active items only
    steal = steal_search(oracles, ledgers, masks, bid_ints, top)
    if steal is None:
        raise TopStealDiagnostic(f"steal {any_steal} exists but no top-competitor steal does")
    return steal


def top_steal(valuations, init_alloc, t: int = None) -> TopStealRun:
    """Compute a no-overbidding, steal-stable state for a t-restricted instance."""
    n = len(valuations)
    m = item_count(valuations)
    t = n if t is None else checked_count(t, "t")
    if t < 2:
        raise DomainError("need t >= 2")
    alloc = check_allocation(init_alloc, n, m)
    if sum(map(len, alloc)) != m:  # the bundles are disjoint
        raise DomainError("initial allocation must cover all items")
    # the move and the restriction check each scan every singleton, so the
    # ledger reads as for preprocess_to_competitors then competitor_info
    rows, D = _singleton_rows(valuations, 2 * m)
    alloc, _ignorable = _to_competitors(alloc, rows)
    worst = max(sum(x > 0 for x in col) for col in zip(*rows))
    if worst > t:
        raise DomainError(f"instance is only {worst}-restricted, got t={t}")
    steals = []
    out = _top_steal_rec(list(valuations), rows, D, alloc, frozenset(range(m)), t, steals)
    return TopStealRun(*out, steals)


def _give(alloc, thief, j):
    """The allocation with item j moved to the thief."""
    return tuple((S | {j}) if i == thief else (S - {j}) for i, S in enumerate(alloc))


def _top_steal_rec(valuations, rows, D, alloc, active, t, steals):
    """One level on the active items; rows[i] holds bidder i's singletons at D
    and is read only on the active items."""
    for v in valuations:  # this level's competitor scan
        v.ledger.value += len(active)
    tops = _tops(rows)

    if len(active) == 1:
        (j,) = active
        holder = next(i for i, S in enumerate(alloc) if j in S)
        trace = RecursionTrace("single_item", 1, t)
        if rows[holder][j] != tops[j] > 0:
            thief = _top(rows, tops, j)[0]
            steals.append((thief, holder, j))
            trace.steal = (thief, holder, j)
            alloc = _give(alloc, thief, j)
            holder = thief
        valuations[holder].ledger.value += 1
        zeros = [[Fraction(0)] * valuations[0].m] * len(valuations)
        return (*compose_top_item(alloc, zeros, holder, j, Fraction(rows[holder][j], D)), trace)

    # pin an item whose holder is already a top competitor
    pin = next(((i, j) for i, S in enumerate(alloc) for j in sorted(S & active)
                if rows[i][j] == tops[j] > 0), None)
    if pin is not None:
        i, j = pin
        valuations[i].ledger.value += 1
        sub_vals = list(valuations)
        sub_vals[i] = MarginalValuation(valuations[i], j)
        sub_rows = _reread(rows, i, sub_vals[i], D, active - {j})
        sub_alloc = tuple(S - {j} if k == i else S for k, S in enumerate(alloc))
        out_alloc, out_bids, child = _top_steal_rec(
            sub_vals, sub_rows, D, sub_alloc, active - {j}, t, steals
        )
        alloc2, bids2 = compose_top_item(out_alloc, out_bids, i, j, Fraction(rows[i][j], D))
        return alloc2, bids2, RecursionTrace("pin_top_item", len(active), t, children=[child])

    if t == 2:
        # marginal bids over the active items only, ascending order
        sub_alloc = tuple(S & active for S in alloc)
        bids = compute_bids(valuations, sub_alloc, owner_first(sub_alloc, valuations[0].m))
        steal = _find_top_steal(valuations, sub_alloc, bids, rows, tops)
        if steal is None:
            return alloc, bids, RecursionTrace("stable_bids", len(active), t)
        thief, _, j = steal
        steals.append(steal)
        out_alloc, out_bids, child = _top_steal_rec(
            valuations, rows, D, _give(alloc, thief, j), active, t, steals
        )
        trace = RecursionTrace("steal_then_recurse", len(active), t, steal=steal, children=[child])
        return out_alloc, out_bids, trace

    # t > 2: erase every bidder's top-competitor items and fall to t-1
    sub_vals, sub_rows = list(valuations), rows
    for i, row in enumerate(rows):
        erased = frozenset(j for j in active if row[j] == tops[j] > 0)
        if erased:
            sub_vals[i] = ErasedValuation(valuations[i], erased)
            sub_rows = _reread(sub_rows, i, sub_vals[i], D, erased)
    for v in valuations:  # the scan that checks the fall to t-1
        v.ledger.value += len(active)
    if any(sum(row[j] > 0 for row in sub_rows) >= t for j in active):
        raise DomainError(f"a pin lifted a non-submodular bidder's marginal singletons above the {t}-restriction")
    out_alloc, out_bids, child = _top_steal_rec(sub_vals, sub_rows, D, alloc, active, t - 1, steals)
    restricted = tuple(S & active for S in out_alloc)
    if find_steal(valuations, restricted, out_bids) is None:
        return out_alloc, out_bids, RecursionTrace("erased_stable", len(active), t, children=[child])
    steal = _find_top_steal(valuations, restricted, out_bids, rows, tops)
    thief, _, j = steal
    steals.append(steal)
    out_alloc2, out_bids2, child2 = _top_steal_rec(
        valuations, rows, D, _give(out_alloc, thief, j), active, t, steals
    )
    trace = RecursionTrace("erase_then_steal", len(active), t, steal=steal, children=[child, child2])
    return out_alloc2, out_bids2, trace
