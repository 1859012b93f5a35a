"""Simultaneous second-price auction: resolution, deviations, equilibrium checks.

Bids are n rows of m rationals. Each item goes to its highest bidder, ties to
the lowest bidder index; a winner pays, per item won, the highest rival bid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat

from .money import Money, checked_iter, checked_money, rescale, scale_to_ints
from .valuations import (
    CapabilityError,
    DomainError,
    Valuation,
    _subset_max,
    bundle_of,
    checked_count,
    checked_mask,
    iter_bits,
    lane_bytes,
    lane_guard,
    lane_masks,
    lanes_argmax,
    lanes_max,
    lanes_of,
    max_passes,
    packed_sums,
    priced_lanes,
    subset_sums,
    unpack_lanes,
    widen_lanes,
)

OPT_WORK_CAP = 40_000_000
# the most items whose subsets best_deviation and check_no_overbidding walk
SUBSET_CAP = 18


def check_bids(bids, n=None, m=None):
    rows = tuple(checked_money(row, "bids") for row in checked_iter(bids, "bids must be a list of rows"))
    if n is not None and len(rows) != n:
        raise DomainError(f"expected {n} bid rows, got {len(rows)}")
    if not rows:
        raise DomainError("need at least one bidder")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DomainError("ragged bid rows")
    if m is not None and width != m:
        raise DomainError(f"expected {m} items, got {width}")
    return rows


def resolve(bids):
    """Allocation and payments. Every item is assigned: highest bid wins,
    ties to the lowest bidder index; payment is the highest rival bid (`_resolve`)."""
    rows, D = _int_bids(bids)
    won, paid = _resolve(rows)
    return tuple(map(bundle_of, won)), tuple(Fraction(x, D) for x in paid)


def _int_bids(bids, n=None, m=None):
    """(int rows, D): the rows of `check_bids` at their least common denominator D."""
    rows = check_bids(bids, n, m)
    flat, D = scale_to_ints([x for row in rows for x in row])
    width = len(rows[0])
    return [flat[k * width : k * width + width] for k in range(len(rows))], D


def _resolve(rows):
    """resolve on int bid rows: per bidder the mask won and the int sum paid.
    An item goes to its first largest bid and costs the largest other bid."""
    won, paid = [0] * len(rows), [0] * len(rows)
    for j, col in enumerate(zip(*rows)):
        i = col.index(max(col))
        won[i] |= 1 << j
        paid[i] += max(col[:i] + col[i + 1 :], default=0)
    return won, paid


def _rival_max(rows, i):
    """Per item, the largest int bid of the bidders but i, or 0; the zero rows keep `max` at two rows."""
    zeros = [0] * len(rows[i])
    return list(map(max, zeros, zeros, *rows[:i], *rows[i + 1 :]))


def prices_from_bids(bids):
    """Per-item standing price: the highest bid on the item."""
    bids = check_bids(bids)
    m = len(bids[0])
    return tuple(max(row[j] for row in bids) for j in range(m))


def allocation_masks(alloc, n: int, m: int) -> list:
    """The masks of n disjoint bundles of items 0..m-1, each by `checked_mask`."""
    bundles = checked_iter(alloc, "an allocation must be a list of bundles")
    try:
        masks = [checked_mask(S, m) for S in bundles]
    except DomainError as exc:
        raise DomainError(f"allocation uses unknown items: {exc}") from None
    if len(masks) != n:
        raise DomainError(f"expected {n} bundles, got {len(masks)}")
    seen = 0
    for mask in masks:
        if mask & seen:
            raise DomainError("allocation bundles overlap")
        seen |= mask
    return masks


def check_allocation(alloc, n: int, m: int):
    """The allocation as a tuple of frozensets, from `allocation_masks`."""
    return tuple(map(bundle_of, allocation_masks(alloc, n, m)))


def item_count(valuations) -> int:
    """The bidders' common number of items m; the first check of a bidder list."""
    ms = {v.m for v in checked_iter(valuations, "valuations must be a list of bidders")}
    if not ms:
        raise DomainError("need at least one bidder")
    if len(ms) > 1:
        raise DomainError("valuations disagree on m")
    return ms.pop()


def welfare(valuations, alloc) -> Money:
    alloc = check_allocation(alloc, m=item_count(valuations), n=len(valuations))
    return sum((v.value(S) for v, S in zip(valuations, alloc)), Fraction(0))


def utility_of(valuations, i: int, alloc, payments) -> Money:
    return valuations[i].value(alloc[i]) - payments[i]


def optimal_welfare(valuations):
    """Exact optimum over partitions by bidder DP; returns (value, allocation).

    Runs on value tables scaled to one common denominator, which keeps every
    comparison and so the chosen allocation. Bidder i takes, from the items
    left to bidders 0..i, the submask t with the largest (welfare, t) pair:
    the highest welfare, ties to the largest t. Bidder 0's row is a subset
    max of its table (for n = 3, on the table's kept lanes, in
    `_split_bound`); bidders 1..n-3 get full rows by the submask walk.

    The middle bidder (n-2) is searched only where the last bidder's choice
    t can still win. For any int prices p with ps = p(R), a split of R
    between the middle table a and the row before it b obeys, for every s
    with W <= s <= U, a[s] + b[R^s] = (a[s] - ps[s]) + (b[R^s] - ps[R^s]) +
    ps[R] <= A[U] + B[R^W] + ps[R], with A and B the subset maxes of a - ps
    and b - ps. At W = 0, U = R, adding the last bidder's value bounds each
    t's welfare. The t are tried by (bound, t) descending and the search
    stops at the first (bound, t) below the best (welfare, t) found: every
    later t has a smaller (welfare, t) pair, so ties still go to the
    largest t. `_split_above` narrows W and U to find each t's split.
    `_split_bound` gives these rows less constants that sum to c (see there).

    Refuses, before any table is built, when `_opt_step_bound(n, m)` exceeds
    OPT_WORK_CAP."""
    m, n = item_count(valuations), len(valuations)
    if _opt_step_bound(n, m) > OPT_WORK_CAP:
        raise CapabilityError(
            f"optimal welfare DP too large for n={n}, m={m}: its step bound exceeds {OPT_WORK_CAP}"
        )
    lanes = [v.table_lanes() for v in valuations]
    D = math.lcm(*(L.D for L in lanes))
    tables = [rescale(L.ints, L.D, D) for L in lanes]
    size = 1 << m
    full = size - 1
    # rows[i][mask]: the best welfare of bidders 0..i-1 on the items of mask
    rows = [[0] * size, tables[0] if n == 3 else _subset_max(tables[0])][:n]
    for vals in tables[1:n - 2]:
        prev = rows[-1]
        rows.append([_best_split(prev, vals, mask)[0] for mask in range(size)])
    if n < 3:
        best, bestT = _best_split(rows[-1], tables[-1], full)
    else:
        middle, last = tables[-2], tables[-1]
        row = lanes[0] if n == 3 else lanes_of(rows[-1], D)
        before, A, B, ub, c = _split_bound(lanes[-2], row, rows[-1], _item_prices(tables, m), D)
        rows[-1] = before  # for n = 3, bidder 0's table until here
        first = _branch_items(A, B)
        # bound[R] bounds t = full ^ R; its first maximum, the largest (bound, t), seeds
        bound = list(map(operator.add, ub, reversed(last)))
        bestT = full ^ bound.index(max(bound))
        best = last[bestT] + _best_split(before, middle, full ^ bestT)[0]
        kept = bytes(map((best - c).__le__, bound))
        cands = sorted(zip(compress(bound, kept), compress(range(full, -1, -1), kept)), reverse=True)
        for b, t in cands[1:]:
            if (b + c, t) < (best, bestT):
                break
            # (last[t] + split, t) beats (best, bestT) iff split > floor
            floor = best - last[t] - (t > bestT)
            R = full ^ t
            split = _split_above(middle, before, A, B, c - A[R] - B[R] + ub[R], first, R, floor)
            if split is not None:
                best, bestT = last[t] + split, t
    picks = [0] * n
    picks[-1], mask = bestT, full ^ bestT
    for i in range(n - 2, -1, -1):
        picks[i] = _best_split(rows[i], tables[i], mask)[1]
        mask ^= picks[i]
    return Fraction(best, D), tuple(bundle_of(t) for t in picks)


def _opt_step_bound(n: int, m: int) -> int:
    """An upper bound on the steps `optimal_welfare` takes. Submask steps:
    for n >= 3, the n - 3 full rows and the middle search, 3^m each (it
    tries each t at most once, at most 2^(m - |t|) splits); the last split and
    the n - 1 picks, 2^m each. Then at most three subset maxes of m passes
    over 2^m (four for n > 3: `_split_bound` passes the full row it is given),
    and per bidder a table build and a rescale of 2^m."""
    return max(n - 2, 0) * 3 ** m + (3 * (n + m) + (n > 3) * m) * 2 ** m


def _best_split(prev, vals, mask):
    """The largest (prev[mask ^ t] + vals[t], t) over submasks t of mask:
    submasks in descending order, the first maximum wins."""
    best, bestT = prev[0] + vals[mask], mask
    t = mask
    while t:
        t = (t - 1) & mask
        cand = prev[mask ^ t] + vals[t]
        if cand > best:
            best, bestT = cand, t
    return best, bestT


def _split_bound(a, b, row, prices, D):
    """(before, A, B, ub, c) for the rows a and b at denominator D and int
    item prices p, ps = p(mask), P the sum of the positive prices: before
    the subset max of b (`row`, b's ints at D, when no pass moves a lane),
    whose lanes give B; A, B the subset maxes of a - ps, before - ps (see
    `optimal_welfare`) less min(a) - P, min(b) - P; ub = A + B - rest, rest =
    P - ps never unpacked; c = min(a) + min(b) - P: A[U] + B[V] + c - rest[R]
    and ub[R] + c are exact, below the guard bit. a and b are `Lanes` at
    denominators dividing D, widened and scaled, never repacked or rescanned."""
    size = len(row)
    P = sum(p for p in prices if p > 0)
    ka, kb = D // a.D, D // b.D
    nbytes = lane_bytes(max((a.hi - a.lo) * ka, (b.hi - b.lo) * kb) + sum(map(abs, prices)))
    Xa, Xb = widen_lanes(a.X, a.nbytes, nbytes, size) * ka, widen_lanes(b.X, b.nbytes, nbytes, size) * kb
    rest = packed_sums([-p for p in prices], nbytes, P)
    before, Xb = lanes_max(row, Xb, nbytes, b.lo * kb)
    A = max_passes(Xa + rest, nbytes, size)
    B = max_passes(Xb + rest, nbytes, size)
    return (before, *(unpack_lanes(Y, nbytes, size) for Y in (A, B, A + B - rest)), a.lo * ka + b.lo * kb - P)


def _branch_items(A, B):
    """first[f]: the item of mask f that `_split_above` branches on, the one
    whose loss to both sides lowers A[full] + B[full] the most, ties to the
    lower item. Branching on it first drops ranges sooner."""
    full = len(A) - 1
    left = {1 << j: A[full ^ 1 << j] + B[full ^ 1 << j] for j in range(full.bit_length())}
    first = [0]
    for bit in left:
        kept = {x: x for x in left if left[x] <= left[bit]}
        first += list(map(kept.get, first, repeat(bit)))
    return first


def _split_above(a, b, A, B, pR, first, R, floor):
    """The best split, max of a[s] + b[R ^ s] over submasks s of R, if it
    exceeds `floor`, else None. Branch and bound on ranges W <= s <= U,
    split on the item first[U ^ W]: a range is kept only while its bound
    A[U] + B[R ^ W] + pR (`_split_bound`, pR = ps[R] + c) beats the best
    split found. Ranges never overlap, so at most R's 2^|R| splits are read."""
    best = floor
    ranges = [(0, R)] if A[R] + B[R] + pR > best else []
    while ranges:
        W, U = ranges.pop()
        if W == U:
            best = max(best, a[W] + b[R ^ W])
            continue
        top = first[U ^ W]
        if A[U ^ top] + B[R ^ W] + pR > best:
            ranges.append((W, U ^ top))
        if A[U] + B[R ^ W ^ top] + pR > best:
            ranges.append((W | top, U))
    return best if best > floor else None


def _item_prices(tables, m):
    """Int item prices from the tables alone: items in turn go to the
    largest marginal, ties to the lowest bidder, and each is priced at half
    its owner's final marginal, floored and at least 0."""
    owned = [0] * len(tables)
    owner = []
    for j in range(m):
        gains = [vals[S | 1 << j] - vals[S] for vals, S in zip(tables, owned)]
        owner.append(gains.index(max(gains)))
        owned[owner[-1]] |= 1 << j
    return [max(0, (tables[i][owned[i]] - tables[i][owned[i] ^ 1 << j]) // 2)
            for j, i in enumerate(owner)]


def check_no_overbidding(v: Valuation, bid_row):
    """Weak no-overbidding: bids on every bundle sum to at most its value.
    The bids, one per item, must be nonnegative, as in `check_bids`.

    For monotone valuations it is enough to check subsets of the support,
    so only the support's submasks are ever evaluated, in descending order.
    """
    (row,), D = _int_bids([bid_row])
    if len(row) != v.m:
        raise DomainError("valuation does not match bid width")
    return _no_overbidding(v.int_oracle(), row, D)


def _no_overbidding(oracle, row, D):
    """check_no_overbidding on an oracle (f, Dv), f(mask) == Dv * v(mask), and int bids at D."""
    f, Dv = oracle
    support = [j for j, x in enumerate(row) if x > 0]
    if len(support) > SUBSET_CAP:
        raise CapabilityError(f"no-overbidding check capped at support size {SUBSET_CAP}")
    bids = [row[j] for j in support]
    # index c counts over the support; sub[c] is the item mask it stands for
    sub = subset_sums([1 << j for j in support])
    total = subset_sums(bids)
    for c in range(len(sub) - 1, 0, -1):
        val = f(sub[c])
        if total[c] * Dv > val * D:
            S = sorted(bundle_of(sub[c]))
            return False, {"S": S, "bids": Fraction(total[c], D), "value": Fraction(val, Dv)}
    return True, None


@dataclass
class Deviation:
    utility: Money
    bundle: frozenset
    payment: Money


def best_deviation(valuations, i: int, bids) -> Deviation:
    """Best strictly-winnable response for bidder i against the rivals' bids.

    A target T is winnable iff every nonempty S within T satisfies
    sum of standing rival prices over S < v_i(S); the deviator then pays the
    rival price on each item of T. Exact for subadditive valuations.
    """
    i = checked_count(i, "bidder")
    if not 0 <= i < len(valuations):
        raise DomainError(f"bidder {i} not within 0..{len(valuations) - 1}")
    rows, D = _int_bids(bids, n=len(valuations))
    m = len(rows[0])
    v = valuations[i]
    if v.m != m:
        raise DomainError("valuation does not match bid width")
    if m > SUBSET_CAP:
        raise CapabilityError(f"best deviation capped at m={SUBSET_CAP}")
    return _best_deviation(v.table_lanes(), (_rival_max(rows, i), D))


def _best_deviation(lanes, prices) -> Deviation:
    """best_deviation on the deviator's `table_lanes` and rival prices (p,
    Dp), ints at their denominator. A mask is free iff each nonempty submask
    S has p(S) < v(S), lane S of the `priced_lanes` L above c: one guard-bit
    subtraction marks those lanes (and mask 0), and the marks are closed
    downward, a shift per bit of the lanes `lane_masks` keeps. The best is
    `lanes_argmax` of the free lanes of L + 1 (the others 0), less c + 1."""
    L, c, w, D, p = priced_lanes(lanes, *prices)
    size = len(lanes.ints)
    guard = lane_guard(w, size)
    free = ((L | guard) - (c + 1) * (guard >> 8 * w - 1)) & guard | 1 << 8 * w - 1
    shift = 8 * w
    for keep in lane_masks(w, size):
        free &= (free & keep) << shift | keep
        shift *= 2
    low = free >> 8 * w - 1
    top, best = lanes_argmax((L & free - low) + low, w, size, guard)
    pay = sum(p[j] for j in iter_bits(best))
    return Deviation(Fraction(top - 1 - c, D), bundle_of(best), Fraction(pay, D))


def is_pure_nash_no_overbid(valuations, bids, alloc=None):
    """Full equilibrium check: consistent allocation, no overbidding, and no
    strictly profitable deviation for any bidder. Returns (ok, witnesses):
    a mismatch first, then overbidding and deviations, each by bidder.
    Both checks of a bidder read one value table of it."""
    m = item_count(valuations)
    rows, D = _int_bids(bids, n=len(valuations), m=m)
    if m > SUBSET_CAP:
        raise CapabilityError(f"equilibrium check capped at m={SUBSET_CAP}")
    won, paid = _resolve(rows)
    witnesses = []
    if alloc is not None and allocation_masks(alloc, len(valuations), m) != won:
        witnesses.append({"kind": "allocation-mismatch", "resolved": tuple(map(bundle_of, won))})
    deviations = []
    for i, v in enumerate(valuations):
        lanes = v.table_lanes()
        ok, w = _no_overbidding((lanes.ints.__getitem__, lanes.D), rows[i], D)
        if not ok:
            witnesses.append({"kind": "overbidding", "bidder": i, **w})
        current = Fraction(lanes.ints[won[i]], lanes.D) - Fraction(paid[i], D)
        dev = _best_deviation(lanes, (_rival_max(rows, i), D))
        if dev.utility > current:
            deviations.append({"kind": "deviation", "bidder": i, "bundle": sorted(dev.bundle),
                               "utility": dev.utility, "current": current})
    witnesses += deviations
    return not witnesses, witnesses


def is_traditional(valuations, alloc, bids):
    """Bids equal the valuation's XOS clause (`xos_clause`) of the owned
    bundle and are zero elsewhere."""
    m = item_count(valuations)
    bids = check_bids(bids, n=len(valuations), m=m)
    alloc = check_allocation(alloc, len(valuations), m)
    for i, v in enumerate(valuations):
        clause = v.xos_clause(alloc[i])
        for j in range(v.m):
            expected = clause.get(j, Fraction(0)) if j in alloc[i] else Fraction(0)
            if bids[i][j] != expected:
                return False, {"bidder": i, "item": j, "bid": bids[i][j], "clause": expected}
    return True, None


def greedy_allocation(valuations):
    """Item-by-item max-marginal assignment, ties to the lowest bidder."""
    m = item_count(valuations)
    owned = [set() for _ in valuations]
    for j in range(m):
        best_i, best_gain = 0, None
        for i, v in enumerate(valuations):
            gain = v.marginal(j, owned[i])
            if best_gain is None or gain > best_gain:
                best_i, best_gain = i, gain
        owned[best_i].add(j)
    return tuple(frozenset(s) for s in owned)
