"""Valuation families over item bundles with exact rational values.

Items are 0..m-1. Bundles are frozensets in the public API and bitmasks
inside (bit j is item j). `checked_mask` is the one entry from a public
bundle, item or item order to a mask: each item must be an int in 0..m-1,
and anything else raises DomainError. Every family defines its value
once, as an int oracle (f, D) with f(mask) == D * v(mask), stored as
`_oracle`; the base derives the value table and the one Fraction face
`_value_mask` from it. Every family keeps a QueryLedger counting value /
demand / XOS-clause queries; internal `_value_mask` and oracle calls are
not counted.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .money import DomainError, Money, checked_iter, checked_money, format_money, parse_money, rescale, scale_to_ints

EXHAUSTIVE_DEMAND_CAP = 16
TABLE_M_CAP = 20
VERIFY_CAP = {
    "normalized": 30,
    "monotone": TABLE_M_CAP,
    "submodular": 13,
    "subadditive": 10,
    "additive": 14,
    "xos": 8,
}
BB_NODE_CAP = 200_000
# lane masks of at most this many bytes each are kept between calls
LANE_CACHE_BYTES = 1 << 14
# an unsigned array typecode per lane width in bytes
LANE_CODES = {array(code).itemsize: code for code in "BHILQ"}


class CapabilityError(Exception):
    """Instance is too large for an exact routine; nothing was computed."""


class ConstructionError(Exception):
    """A randomized construction exhausted its retry budget."""


def checked_mask(S, m: int) -> int:
    """The bitmask of the bundle S, any iterable of items, each an int (by
    `operator.index`, so True is 1) in 0..m-1. Anything else, or an S that
    is not iterable, raises DomainError. The one place a bundle from outside
    is checked and turned into a mask."""
    mask = 0
    try:
        for j in map(operator.index, S):
            if not 0 <= j < m:
                break
            mask |= 1 << j
        else:
            return mask
    except TypeError:
        pass
    try:
        S = sorted(S)
    except TypeError:
        pass
    raise DomainError(f"bundle {S} not within 0..{m - 1}")


def checked_count(x, name: str) -> int:
    """x as an int, by `operator.index` (so True is 1); a float, a string or
    anything else raises DomainError naming `name`."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{name} must be an int, got {x!r}") from None


def mask_of(S) -> int:
    m = 0
    for j in S:
        m |= 1 << j
    return m


def bundle_of(mask: int) -> frozenset:
    # a set first: frozenset copies it at its final size, while a frozenset
    # grown item by item keeps every table resize (2,264 vs 1,240 bytes at 22)
    return frozenset(set(iter_bits(mask)))


def iter_bits(mask: int):
    """The set bits of mask as item indices, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_submasks(mask: int):
    """All submasks of mask, descending, including mask and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_sums(weights):
    """sums[t] == the sum of weights[b] over the set bits b of t, for every
    t < 1 << len(weights), by doubling: the masks that hold weight b are
    those below bit b with weights[b] added."""
    sums = [0]
    for w in weights:
        sums += [x + w for x in sums]
    return sums


def lane_masks(nbytes: int, size: int):
    """Per pass, for half = 1, 2, 4, ... below `size`: the int of `size`
    lanes of `nbytes` bytes each, lane k at bits 8 * nbytes * k, that is all
    ones where k has no bit `half` and zero elsewhere. Kept between calls
    up to LANE_CACHE_BYTES a mask; larger ones are built pass by pass."""
    if nbytes * size > LANE_CACHE_BYTES:
        return _lane_masks(nbytes, size)
    return _kept_lane_masks(nbytes, size)


def _lane_masks(nbytes, size):
    ones, zeros = b"\xff" * nbytes, bytes(nbytes)
    half = 1
    while half < size:
        yield int.from_bytes((ones * half + zeros * half) * (size // (2 * half)), "little")
        half *= 2


@functools.cache
def _kept_lane_masks(nbytes, size):
    return tuple(_lane_masks(nbytes, size))


def lane_bytes(span: int) -> int:
    """Bytes per lane for entries in 0..span: the narrowest of 1, 2, 4, 8
    whose top (guard) bit span does not reach, else that many 64-bit words."""
    return next((k for k in LANE_CODES if span >> (8 * k - 1) == 0), 8 * (span.bit_length() // 64 + 1))


def pack_lanes(row, lo: int, nbytes: int) -> int:
    """One int of nbytes-byte lanes, lane k the entry row[k] - lo at bits
    8 * nbytes * k: through an array, or `int.to_bytes` for wider lanes."""
    if lo:
        row = [x - lo for x in row]
    if nbytes not in LANE_CODES:
        return int.from_bytes(b"".join(map(int.to_bytes, row, repeat(nbytes), repeat("little"))), "little")
    lanes = array(LANE_CODES[nbytes], row)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def unpack_lanes(X: int, nbytes: int, size: int) -> list:
    """`pack_lanes` undone, for lo = 0. A lane wider than 8 bytes is w 64-bit
    words, low word first; word i of every lane is read at once."""
    lanes = array(LANE_CODES[min(nbytes, 8)], X.to_bytes(nbytes * size, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    w = max(nbytes // 8, 1)
    out = lanes[::w].tolist()
    for i in range(1, w):
        out = list(map(operator.or_, out, map(operator.lshift, lanes[i::w], repeat(64 * i))))
    return out


def max_passes(X: int, nbytes: int, size: int) -> int:
    """The subset max of the `size` lanes of X, nbytes bytes each and all
    below their top (guard) bit: per bit, each mask with the bit takes the
    larger of itself and its partner without it. A pass shifts the partners
    up by the lanes `lane_masks` keeps, and ((X | H) - Y) & H sets a lane's
    guard bit where X >= Y; the other lanes take Y. The one subset-max kernel,
    behind `_subset_max`, the monotone check and OPT's split bound."""
    shift = width = 8 * nbytes
    guard = lane_guard(nbytes, size)
    for keep in lane_masks(nbytes, size):
        Y = (X & keep) << shift
        below = guard ^ (((X | guard) - Y) & guard)
        if below:
            X ^= (X ^ Y) & (below - (below >> width - 1))
        shift *= 2
    return X


def lanes_top(X: int, nbytes: int, size: int, guard: int) -> int:
    """The largest of the `size` lanes of X, a power of two of them, nbytes
    bytes each and all below their guard bits `guard`: the upper half of the
    lanes is folded onto the lower half by the guard-bit compare of
    `max_passes` until one lane is left."""
    width = 8 * nbytes
    while size > 1:
        size //= 2
        half = (1 << width * size) - 1
        low, high, guard = X & half, X >> width * size, guard & half
        ge = ((low | guard) - high) & guard
        X = high ^ (low ^ high) & (ge - (ge >> width - 1))
    return X


def packed_sums(weights, nbytes: int, base: int = 0) -> int:
    """One int whose nbytes-byte lane t holds base + the sum of weights over
    the bits of t, one add and shift per weight; lanes stay nonnegative when
    base covers the negative weights. The one lane-doubling kernel."""
    S, ones, shift = base, 1, 8 * nbytes
    for w in weights:
        S |= (S + w * ones) << shift
        ones |= ones << shift
        shift *= 2
    return S


# a value table, v(t) == ints[t] / D, its entries in lo..hi, X its entries less lo on lanes of nbytes bytes
Lanes = NamedTuple("Lanes", [("ints", list), ("D", int), ("X", int), ("nbytes", int), ("lo", int), ("hi", int)])


def lanes_of(ints, D: int) -> Lanes:
    """The `Lanes` of the value table (ints, D), on the narrowest lanes
    (`lane_bytes`) that hold hi - lo."""
    lo, hi = min(ints), max(ints)
    nbytes = lane_bytes(hi - lo)
    return Lanes(ints, D, pack_lanes(ints, lo, nbytes), nbytes, lo, hi)


def priced_lanes(lanes: Lanes, p, Dp: int):
    """(L, c, w, D, p) at int item prices p / Dp: at D = lcm(lanes.D, Dp), k =
    D // lanes.D, lane t of L = X * k + P - p(t) (`packed_sums`, P the sum of
    the positive prices) is c + D * (v(t) - p(t)), c = P - lo * k (lane 0 where
    v(empty) = 0), on w-byte lanes that keep L + 1 below the guard bit, L at
    most (hi - lo) * k + P + N, N = P - sum(p) the negative prices' size; p at D."""
    D = math.lcm(lanes.D, Dp)
    k, p = D // lanes.D, rescale(p, Dp, D)
    total = sum(p)
    P = total if min(p) >= 0 else sum(x for x in p if x > 0)
    w = lane_bytes((lanes.hi - lanes.lo) * k + 2 * P - total + 1)
    L = widen_lanes(lanes.X, lanes.nbytes, w, len(lanes.ints)) * k + packed_sums([-x for x in p], w, P)
    return L, P - lanes.lo * k, w, D, p


def lanes_argmax(U: int, w: int, size: int, guard: int):
    """(top, mask): `lanes_top` of the `size` w-byte lanes of U, below their
    guard bits `guard`, and the lane holding it that wins `better_demand`:
    one guard-bit subtraction marks the lanes equal to top."""
    top = lanes_top(U, w, size, guard)
    ties = (((U | guard) - top * (guard >> 8 * w - 1)) & guard).to_bytes(w * size, "little")[w - 1 :: w]
    best = t = ties.find(128)
    while (t := ties.find(128, t + 1)) >= 0:
        if better_demand(top, t, top, best):
            best = t
    return top, best


def widen_lanes(X: int, nbytes: int, to: int, size: int) -> int:
    """The `size` lanes of X, nbytes bytes each, as lanes of `to` bytes: byte
    b of every lane moves at once, by one extended-slice assignment. Exact
    while every entry fits `to` bytes."""
    if to == nbytes:
        return X
    src, out = X.to_bytes(nbytes * size, "little"), bytearray(to * size)
    for b in range(min(nbytes, to)):
        out[b::to] = src[b::nbytes]
    return int.from_bytes(out, "little")


def lane_guard(nbytes: int, size: int) -> int:
    """The top (guard) bit of each of `size` lanes of nbytes bytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * size, "little")


def _subset_max(row):
    """Per mask, the largest entry of `row` over its submasks, by `max_passes`
    on the row less its minimum lo; `row` itself when no pass moves a lane."""
    lanes = lanes_of(row, 1)
    return lanes_max(row, lanes.X, lanes.nbytes, lanes.lo)[0]


def lanes_max(row, X: int, nbytes: int, lo: int):
    """(subset max of `row`, its lanes) from X, the nbytes-byte lanes of
    `row` less lo; `row` itself when no pass moves a lane."""
    Y = max_passes(X, nbytes, len(row))
    if Y == X:
        return row, X
    out = unpack_lanes(Y, nbytes, len(row))
    return ([x + lo for x in out] if lo else out), Y


def cheapest_subsets(costs, k, order):
    """(cost, mask) of every k-item subset, for int item costs, lazily in
    nondecreasing cost, ties to the smaller index vector into `order`, the
    items sorted by (cost, item), which every caller already holds. In the
    heap, `pos` holds a subset's indices and `key` the indices it lacks at
    bits m-1-i, so a smaller key is a smaller vector. A subset's one parent
    moves down its lowest index above its own position, so a pop pushes at
    most two children, each one index up: the popped cost plus one
    difference."""
    m = len(costs)
    if not 0 <= k <= m:
        return
    step = [costs[b] - costs[a] for a, b in zip(order, order[1:])]
    heap = [(sum(costs[j] for j in order[:k]), (1 << m - k) - 1, (1 << k) - 1, mask_of(order[:k]))]
    while heap:
        cost, key, pos, mask = heapq.heappop(heap)
        yield cost, mask
        # the children move up the top index of the low run of indices
        # 0, 1, ... or the lowest index above that run
        above = pos & (pos + 1)
        for a in ((~pos & (pos + 1)).bit_length() - 2, (above & -above).bit_length() - 1):
            if 0 <= a < m - 1 and not pos >> (a + 1) & 1:
                heapq.heappush(heap, (cost + step[a], key ^ 3 << (m - 2 - a), pos ^ 3 << a,
                                      mask ^ 1 << order[a] ^ 1 << order[a + 1]))


def lowest_terms(ints, D: int):
    """(ints, D) divided by gcd(D, *ints): the values ints[t] / D at their
    least common denominator."""
    g = math.gcd(D, *ints)
    return (ints, D) if g == 1 else ([x // g for x in ints], D // g)


def sum_oracle(weights, cap=None):
    """f(mask) == the sum of weights[b] over the set bits b of mask, clamped
    at cap when one is given, for int weights. The items are split into
    blocks of at most 8, and each block gets its own `subset_sums` table, so
    no 2^m table is built."""
    k = -(-len(weights) // 8)
    size = -(-len(weights) // k)
    low = (1 << size) - 1
    blocks = [subset_sums(weights[b : b + size]) for b in range(0, len(weights), size)]
    if cap is None:
        cap = sum(weights)

    def total(mask):
        t = 0
        for block in blocks:
            t += block[mask & low]
            mask >>= size
        return t if t < cap else cap

    return total


def better_demand(profit_a, a: int, profit_b, b: int) -> bool:
    """True if (profit_a, bundle mask a) beats (profit_b, b) under the demand
    tie rule: larger profit, then fewer items, then the lexicographically
    smaller sorted bundle. Between two bundles of one size that is the one
    holding the lowest item of a ^ b."""
    if profit_a != profit_b:
        return profit_a > profit_b
    size_a, size_b = a.bit_count(), b.bit_count()
    if size_a != size_b:
        return size_a < size_b
    diff = a ^ b
    return bool(a & diff & -diff)


@dataclass
class QueryLedger:
    value: int = 0
    demand: int = 0
    xos: int = 0

    def total(self) -> int:
        return self.value + self.demand + self.xos

    def snapshot(self) -> dict:
        return {"value": self.value, "demand": self.demand, "xos": self.xos}


class Valuation:
    """Monotone normalized set function with exact rational values."""

    kind = "abstract"

    def __init__(self, m: int):
        if (m := checked_count(m, "m")) < 1:
            raise DomainError(f"need at least one item, got m={m}")
        self.m = m
        self.full_mask = (1 << m) - 1
        self.ledger = QueryLedger()

    # -- queries ----------------------------------------------------------

    def value(self, S) -> Money:
        mask = checked_mask(S, self.m)
        self.ledger.value += 1
        return self._value_mask(mask)

    def marginal(self, j: int, S) -> Money:
        """v(j | S) = v(S + j) - v(S); counted as two value queries."""
        mask, bit = checked_mask(S, self.m), checked_mask((j,), self.m)
        self.ledger.value += 2
        return self._value_mask(mask | bit) - self._value_mask(mask)

    def demand(self, prices) -> frozenset:
        """Profit-maximizing bundle at item prices; ties break to the smallest
        cardinality, then the lexicographically smallest sorted tuple."""
        mask = self._demand(*self._check_prices(prices))
        self.ledger.demand += 1
        return bundle_of(mask)

    def xos_clause(self, S) -> dict:
        """Additive clause a with a(S) = v(S) and a(T) <= v(T) everywhere,
        returned as {item: weight} supported on S."""
        mask = checked_mask(S, self.m)
        self.ledger.xos += 1
        return self._xos_clause(mask)

    # -- family internals --------------------------------------------------

    def _value_mask(self, mask: int) -> Money:
        """The value of the bundle `mask`, read from the family's int oracle.
        Not counted in the ledger."""
        f, D = self._oracle
        return Fraction(f(mask), D)

    def value_table(self):
        """(ints, D) with _value_mask(t) == Fraction(ints[t], D) for every
        mask t, in lowest terms, not counted in the ledger: the oracle over
        all masks. Each call returns a fresh list; a family whose values
        never change may keep the ints of its first call and copy them out."""
        f, D = self._oracle
        return lowest_terms(list(map(f, range(1 << self.m))), D)

    def table_lanes(self) -> Lanes:
        """`lanes_of(*value_table())` for the exhaustive kernels, afresh per
        call, so values that change (`add_bump`) stay exact. A family whose
        values never change keeps its lanes and hands out its ints
        uncopied; no caller may mutate them."""
        return lanes_of(*self.value_table())

    def int_oracle(self):
        """(f, D) with f(mask) == D * v(mask) exactly for every mask: the
        family's one value definition, built once as `self._oracle`. f is
        not counted in the ledger and builds no 2^m table."""
        return self._oracle

    def _check_prices(self, prices):
        """(p, D): one price per item, checked and scaled once to ints p[j] >= 0
        at their least common denominator D."""
        return scale_to_ints(checked_money(prices, "prices", self.m))

    def _demand(self, p, D: int) -> int:
        """The mask of the demanded bundle at item prices p[j] / D, for ints
        p[j] >= 0: the uncounted demand entry behind `demand`. By default
        `lanes_argmax` of the table's `priced_lanes`."""
        if self.m > EXHAUSTIVE_DEMAND_CAP:
            raise CapabilityError(
                f"exhaustive demand needs m <= {EXHAUSTIVE_DEMAND_CAP}, got {self.m}"
            )
        L, _, w, _, _ = priced_lanes(self.table_lanes(), p, D)
        size = 1 << self.m
        return lanes_argmax(L, w, size, lane_guard(w, size))[1]

    def _int_clause(self, mask: int):
        """(row, D): the clause of the bundle `mask` as ints, row[j] == D *
        weight of item j and 0 off the bundle, at the weights' least common
        denominator D. The uncounted clause entry behind the best-reply
        dynamic; by default `_xos_clause` scaled."""
        clause = self._xos_clause(mask)
        weights, D = scale_to_ints(list(clause.values()))
        row = [0] * self.m
        for j, w in zip(clause, weights):
            row[j] = w
        return row, D

    def _xos_clause(self, mask: int) -> dict:
        # greedy ascending-index marginals; a legal clause for submodular v
        clause = {}
        prev = 0
        for j in iter_bits(mask):
            nxt = prev | (1 << j)
            clause[j] = self._value_mask(nxt) - self._value_mask(prev)
            prev = nxt
        return clause

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError


class TableValuation(Valuation):
    """Explicit table over all 2^m bundles, indexed by bitmask."""

    kind = "table"

    def __init__(self, m: int, values, validate: bool = True):
        super().__init__(m)
        if m > TABLE_M_CAP:
            raise CapabilityError(f"table valuation capped at m={TABLE_M_CAP}, got {m}")
        values = checked_iter(values, "values must be a row of money")
        # the parsed Fractions die here, before the monotone check runs
        self._ints, self._D = scale_to_ints([parse_money(x) for x in values])
        if len(self._ints) != 1 << m:
            raise DomainError(f"need {1 << m} table entries, got {len(self._ints)}")
        if self._ints[0] != 0:
            raise DomainError("v(empty) must be 0")
        self._oracle = self._ints.__getitem__, self._D
        # the lanes the monotone check packs are kept; unchecked, packed once when read
        self._lanes = None
        if validate:
            drop = _first_monotone_drop(self.table_lanes())
            if drop is not None:
                mask, j = drop
                raise DomainError(f"not monotone at {sorted(bundle_of(mask))} + item {j}")

    def value_table(self):
        return list(self._ints), self._D

    def table_lanes(self):
        if self._lanes is None:
            self._lanes = lanes_of(self._ints, self._D)
        return self._lanes

    def to_json(self):
        return {
            "kind": "table",
            "m": self.m,
            "values": [format_money(Fraction(x, self._D)) for x in self._ints],
        }


class AdditiveValuation(Valuation):
    kind = "additive"

    def __init__(self, m: int, item_values):
        super().__init__(m)
        self.item_values = checked_money(item_values, "item values", m)
        self._weights, self._D = scale_to_ints(self.item_values)
        self._oracle = sum_oracle(self._weights), self._D

    def value_table(self):
        return subset_sums(self._weights), self._D

    def _demand(self, p, D):
        w, Dw = self._weights, self._D
        return sum(1 << j for j in range(self.m) if w[j] * D > p[j] * Dw)

    def _xos_clause(self, mask):
        return {j: self.item_values[j] for j in iter_bits(mask)}

    def to_json(self):
        return {
            "kind": "additive",
            "m": self.m,
            "items": [format_money(x) for x in self.item_values],
        }


class BudgetAdditiveValuation(Valuation):
    """v(S) = min(budget, sum of item values over S)."""

    kind = "budget_additive"

    def __init__(self, m: int, budget, item_values):
        super().__init__(m)
        (self.budget,) = checked_money((budget,), "budget")
        self.item_values = checked_money(item_values, "item values", m)
        # the budget is scaled with the weights, to one common denominator
        (*self._weights, self._budget), self._D = scale_to_ints(self.item_values + (self.budget,))
        self._oracle = sum_oracle(self._weights, self._budget), self._D

    def value_table(self):
        budget = self._budget
        # an unreached budget leaves its denominator out of the least D
        return lowest_terms([x if x < budget else budget for x in subset_sums(self._weights)], self._D)

    def _demand(self, p, D):
        # exact knapsack-style branch and bound over profitable items, on
        # ints at E, where the weights, the budget and the prices all are
        E = math.lcm(D, self._D)
        w, p = rescale(self._weights, self._D, E), rescale(p, D, E)
        budget = self._budget * (E // self._D)
        cand = [j for j in range(self.m) if w[j] > p[j]]
        if sum(w[j] for j in cand) <= budget:
            return mask_of(cand)
        gains = [w[j] - p[j] for j in cand]
        best_profit = best = nodes = 0

        def walk(idx, chosen_val, chosen_price, chosen):
            nonlocal best_profit, best, nodes
            nodes += 1
            if nodes > BB_NODE_CAP:
                raise CapabilityError(
                    f"budget-additive demand search exceeded node cap {BB_NODE_CAP}"
                )
            profit = min(budget, chosen_val) - chosen_price
            if better_demand(profit, chosen, best_profit, best):
                best_profit, best = profit, chosen
            if idx == len(cand):
                return
            if profit + sum(gains[idx:]) < best_profit:
                return
            j = cand[idx]
            walk(idx + 1, chosen_val + w[j], chosen_price + p[j], chosen | 1 << j)
            walk(idx + 1, chosen_val, chosen_price, chosen)

        walk(0, 0, 0, 0)
        return best

    def to_json(self):
        return {
            "kind": "budget_additive",
            "m": self.m,
            "budget": format_money(self.budget),
            "items": [format_money(x) for x in self.item_values],
        }


class XOSExplicitValuation(Valuation):
    """Max over an explicit list of nonnegative additive clauses."""

    kind = "xos"

    def __init__(self, m: int, clauses):
        super().__init__(m)
        clauses = checked_iter(clauses, "clauses must be a list of rows")
        self.clauses = [checked_money(c, "clause weights", m) for c in clauses]
        if not self.clauses:
            raise DomainError("need at least one clause")
        flat, D = scale_to_ints([x for c in self.clauses for x in c])
        self._sums = sums = [sum_oracle(flat[r * m : (r + 1) * m]) for r in range(len(self.clauses))]
        self._oracle = (lambda mask: max(f(mask) for f in sums)), D

    def _xos_clause(self, mask):
        # the first clause of the largest sum over the bundle
        totals = [f(mask) for f in self._sums]
        best = self.clauses[totals.index(max(totals))]
        return {j: best[j] for j in iter_bits(mask)}

    def to_json(self):
        return {
            "kind": "xos",
            "m": self.m,
            "clauses": [[format_money(x) for x in c] for c in self.clauses],
        }


class CoverageValuation(Valuation):
    """v(S) = total weight of edges with at least one endpoint in S.

    Items are graph vertices; weights are nonnegative rationals.
    """

    kind = "coverage"

    def __init__(self, m: int, edges):
        super().__init__(m)
        parsed = []
        for edge in checked_iter(edges, "edges must be a list of rows"):
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise DomainError(f"an edge must be (u, v, weight), got {edge!r}") from None
            ends = checked_mask((u, v), m)
            if ends.bit_count() == 1:
                raise DomainError(f"self-loop at vertex {u}")
            (w,) = checked_money((w,), "edge weights")
            parsed.append(((ends & -ends).bit_length() - 1, ends.bit_length() - 1, w))
        self.edges = parsed
        self._weights, self._D = scale_to_ints([w for _, _, w in parsed])
        hits = [((1 << u) | (1 << v), w) for (u, v, _), w in zip(parsed, self._weights)]
        self._oracle = (lambda mask: sum(w for em, w in hits if em & mask)), self._D
        self._lanes = None

    def value_table(self):
        lanes = self.table_lanes()
        return list(lanes.ints), lanes.D

    def table_lanes(self):
        # the edges never change, so the first build is kept, with its lanes
        # T (lo = 0, hi = the total weight); it doubles per item j on lanes:
        # for S below j, v(S + j) == v(S) + total[j] less the weight from j
        # into S, a `packed_sums` lane
        if self._lanes is None:
            total = [0] * self.m
            lower = [[0] * j for j in range(self.m)]
            for (u, v, _), w in zip(self.edges, self._weights):
                total[u] += w
                total[v] += w
                lower[v][u] -= w
            hi = sum(self._weights)
            T, nbytes = 0, lane_bytes(hi)
            for j in range(self.m):
                T |= (T + packed_sums(lower[j], nbytes, total[j])) << (8 * nbytes << j)
            self._lanes = Lanes(unpack_lanes(T, nbytes, 1 << self.m), self._D, T, nbytes, 0, hi)
        return self._lanes

    def to_json(self):
        return {
            "kind": "coverage",
            "m": self.m,
            "edges": [[u, v, format_money(w)] for u, v, w in self.edges],
        }


# -- class verification ------------------------------------------------------


def verify_class(v: Valuation, cls: str):
    """Check a valuation class property exhaustively; returns (ok, witness).

    Witnesses carry the first violating bundles and both side values. Every class
    but `normalized` reads `v.table_lanes()`; `additive` its `priced_lanes`.
    """
    m = v.m
    if cls not in VERIFY_CAP:
        raise DomainError(f"unknown class {cls!r}")
    if m > VERIFY_CAP[cls]:
        raise CapabilityError(f"verify_class({cls}) capped at m={VERIFY_CAP[cls]}")
    if cls == "normalized":
        val = v._value_mask(0)
        if val != 0:
            return False, {"S": [], "value": val}
        return True, None
    lanes = v.table_lanes()
    vals, D = lanes.ints, lanes.D
    if cls == "additive":
        L, c, w, _, _ = priced_lanes(lanes, [vals[1 << j] for j in range(m)], D)
        diff = L ^ c * (lane_guard(w, 1 << m) >> 8 * w - 1)
        if diff:
            mask = ((diff & -diff).bit_length() - 1) // (8 * w)
            return False, {"S": sorted(bundle_of(mask)), "lhs": Fraction(vals[mask], D)}
        return True, None
    if cls == "monotone":
        drop = _first_monotone_drop(lanes)
        if drop is None:
            return True, None
        mask, j = drop
        return False, {
            "S": sorted(bundle_of(mask)),
            "item": j,
            "lhs": Fraction(vals[mask], D),
            "rhs": Fraction(vals[mask | (1 << j)], D),
        }
    if cls == "submodular":
        for mask in range(1 << m):
            rest = list(iter_bits(v.full_mask & ~mask))
            for a, j in enumerate(rest):
                for jp in rest[a + 1 :]:
                    lhs = vals[mask | (1 << j)] + vals[mask | (1 << jp)]
                    rhs = vals[mask | (1 << j) | (1 << jp)] + vals[mask]
                    if lhs < rhs:
                        return False, {
                            "S": sorted(bundle_of(mask)),
                            "items": [j, jp],
                            "lhs": Fraction(lhs, D),
                            "rhs": Fraction(rhs, D),
                        }
        return True, None
    if cls == "subadditive":
        for s in range(1, 1 << m):
            for t in range(1, 1 << m):
                if vals[s] + vals[t] < vals[s | t]:
                    return False, {
                        "S": sorted(bundle_of(s)),
                        "T": sorted(bundle_of(t)),
                        "lhs": Fraction(vals[s] + vals[t], D),
                        "rhs": Fraction(vals[s | t], D),
                    }
        return True, None
    return _verify_xos(vals, D)


def _first_monotone_drop(lanes):
    """(mask, item) of the first vals[S] > vals[S + j] in (mask, item) order,
    or None, for the table's `Lanes`. A table is monotone iff no `max_passes`
    pass moves a lane of X, every mask holding its submask max; the scan names the drop."""
    vals = lanes.ints
    n = len(vals)
    if max_passes(lanes.X, lanes.nbytes, n) == lanes.X:
        return None
    for mask in range(n):
        for j in iter_bits((n - 1) & ~mask):
            if vals[mask] > vals[mask | (1 << j)]:
                return mask, j


def _verify_xos(vals, D: int):
    """XOS check of the value table (vals, D) of v. v is XOS iff it is
    fractionally subadditive (Feige, STOC 2006): for every S the largest sum
    of an additive a >= 0 with a(T) <= v(T) on every nonempty T within S
    reaches v(S). Each S is one exact LP on the ints."""
    if min(vals) < 0:
        raise DomainError("the XOS check needs nonnegative values")
    for smask in range(1, len(vals)):
        items = list(iter_bits(smask))
        subs = [t for t in iter_submasks(smask) if t]
        best = _max_sum([[t >> j & 1 for j in items] for t in subs], [vals[t] for t in subs])
        if best != vals[smask]:
            return False, {
                "S": sorted(bundle_of(smask)),
                "best": best / D,
                "value": Fraction(vals[smask], D),
            }
    return True, None


def _max_sum(rows, b):
    """max sum(x) subject to rows . x <= b and x >= 0, for ints b >= 0, as a
    Fraction: simplex on the condensed tableau with Bland's rule. x = 0 is a
    feasible start, so there is no phase 1. Integer pivoting keeps T equal to
    d times the rational tableau; each update divides exactly by the old d."""
    n = len(rows[0])
    T = [[0] + [1] * n] + [[bi, *row] for bi, row in zip(b, rows)]
    col_var, row_var = list(range(n + 1)), list(range(n + 1, n + 1 + len(T)))
    d = 1
    while True:
        cols = [c for c in range(1, n + 1) if T[0][c] > 0]
        if not cols:
            return Fraction(-T[0][0], d)
        c = min(cols, key=col_var.__getitem__)
        r = None
        for i in range(1, len(T)):
            if T[i][c] > 0 and (
                r is None or (T[i][0] * T[r][c], row_var[i]) < (T[r][0] * T[i][c], row_var[r])
            ):
                r = i
        P, pivot_row = T[r][c], T[r]
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                for j in range(n + 1):
                    row[j] = (row[j] * P - f * pivot_row[j]) // d
                row[c] = -f
        pivot_row[c] = d
        d = P
        col_var[c], row_var[r] = row_var[r], col_var[c]


def check_clause(v: Valuation, S, clause: dict, exhaustive: bool = True):
    """Clause legality: supported on S, a(S) = v(S), and a(T) <= v(T) for all
    T (the lanes of `priced_lanes` at a below c), each weight by `parse_money`."""
    mask = checked_mask(S, v.m)
    clause = {j: parse_money(w) for j, w in clause.items()}
    if not set(clause) <= bundle_of(mask):
        return False, {"reason": "support outside bundle"}
    if any(w < 0 for w in clause.values()):
        return False, {"reason": "negative weight"}
    total = sum(clause.values(), Fraction(0))
    vS = v._value_mask(mask)
    if total != vS:
        return False, {"reason": "clause sum mismatch", "sum": total, "value": vS}
    if exhaustive:
        if v.m > EXHAUSTIVE_DEMAND_CAP:
            raise CapabilityError(f"exhaustive clause check capped at m={EXHAUSTIVE_DEMAND_CAP}")
        L, c, w, D, a = priced_lanes(v.table_lanes(), *scale_to_ints([clause.get(j, 0) for j in range(v.m)]))
        guard = lane_guard(w, 1 << v.m)
        below = guard ^ ((L | guard) - c * (guard >> 8 * w - 1)) & guard
        if below:
            t = (below & -below).bit_length() // (8 * w) - 1
            return False, {
                "reason": "clause exceeds value",
                "T": sorted(bundle_of(t)),
                "clause": Fraction(sum(a[j] for j in iter_bits(t)), D),
                "value": v._value_mask(t),
            }
    return True, None


# -- serialization registry ---------------------------------------------------

_LOADERS = {}


def register_kind(kind: str, loader):
    _LOADERS[kind] = loader


def valuation_from_json(d: dict) -> Valuation:
    if not isinstance(d, dict):
        raise DomainError(f"a valuation must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind not in _LOADERS:
        raise DomainError(f"unknown valuation kind {kind!r}")
    return _LOADERS[kind](d)


register_kind("table", lambda d: TableValuation(d["m"], d["values"]))
register_kind("additive", lambda d: AdditiveValuation(d["m"], d["items"]))
register_kind(
    "budget_additive",
    lambda d: BudgetAdditiveValuation(d["m"], d["budget"], d["items"]),
)
register_kind("xos", lambda d: XOSExplicitValuation(d["m"], d["clauses"]))
register_kind("coverage", lambda d: CoverageValuation(d["m"], d["edges"]))
