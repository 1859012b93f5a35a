"""Best-reply dynamics for two XOS bidders, and the exponential-path instance.

The dynamic keeps a bid profile; the allocation is always resolve(bids). Each
response computes an exact demand against the rival's bids and moves only on a
strict utility improvement, rebidding an XOS clause of the new bundle; on a
stay it rebids the canonical clause of the current bundle, so a terminated run
is traditional. The adversarial instance assigns the middle-levels path
position of each size-(m'+1) bundle as its value bump, which makes every step
exchange exactly one item and raises the winning-bid sum by exactly eps.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .money import Money, format_money, money_rows, parse_money, rescale
from .valuations import (
    CapabilityError,
    ConstructionError,
    DomainError,
    Valuation,
    better_demand,
    bundle_of,
    cheapest_subsets,
    checked_count,
    iter_bits,
    mask_of,
    register_kind,
)
from .auction import allocation_masks, item_count

GRAY_M_CAP = 15
STEP_CAP = 10_000  # the dynamic's default response cap, but for a Gray pair
GRAY_DEMAND_POP_CAP = math.comb(GRAY_M_CAP, GRAY_M_CAP // 2 + 1)  # heap pops: every middle bundle at the cap


# -- middle-levels path -------------------------------------------------------


def _mid_neighbors(mask: int, m: int, mp: int):
    """The masks one flip away inside the middle levels, by ascending item."""
    up = mask.bit_count() == mp
    return [mask ^ (1 << j) for j in range(m) if (mask >> j) & 1 != up]


def gray_middle_levels(m: int):
    """Hamilton path through all bitstrings of weight m' and m'+1 (m odd),
    consecutive strings differing in one bit. Output-verified before return."""
    return [
        "".join("1" if (mask >> j) & 1 else "0" for j in range(m))
        for mask in _gray_path_masks(m)
    ]


# Recorded paths for m <= 9, as the item flipped at each step from the start
# (1 << m') - 1. The frozen exchange counts and traces are read off these
# exact paths.
_RECORDED_FLIPS = {
    3: "20120",
    5: "4134102301401231240",
    7: "415215615436401365265134036032432504125620320540610624104164021023523",
    9: (
        "807361024617247147583014830170126506516028374586547543621627380"
        "350817815026126546530875345143271571328324684710725486483481281"
        "542836136582563561581340253402408356716736756708702357023073041"
        "52652418718347061058628401263243206804708718758742042136426350"
    ),
}


@functools.lru_cache(maxsize=None)
def _gray_path_masks(m: int):
    """The verified path of gray_middle_levels as a tuple of bitmasks, bit j
    for item j. A deterministic function of m, so built once per m."""
    if m % 2 == 0:
        raise DomainError("need odd m")
    if not 3 <= m <= GRAY_M_CAP:
        raise DomainError(f"need 3 <= m <= {GRAY_M_CAP}")
    mp = m // 2
    total = 2 * math.comb(m, mp)
    start = (1 << mp) - 1
    if m in _RECORDED_FLIPS:
        path = [start]
        for j in _RECORDED_FLIPS[m]:
            path.append(path[-1] ^ (1 << int(j)))
    else:
        path = _rotation_extension(m, mp, start, total)
    _verify_path(path, m, mp, total)
    return tuple(path)


def _rotation_extension(m, mp, start, total):
    """Seeded Posa rotation-extension from the fixed start. The end extends to
    its free neighbour with the fewest free neighbours. An end with none
    rotates at a path neighbour w: the path after w is reversed, so the
    vertex after w becomes the end. The rotation taken is the one with the
    shortest reversed suffix among those whose new end can extend, else a
    random one."""
    rng = random.Random(0)
    path = [start]
    pos = {start: 0}

    def free(u):
        return [w for w in _mid_neighbors(u, m, mp) if w not in pos]

    # every step extends or rotates; a good run takes about 1.2 * total
    for _ in range(4 * total):
        end = path[-1]
        nxt = free(end)
        if nxt:
            rng.shuffle(nxt)
            w = min(nxt, key=lambda u: len(free(u)))
            pos[w] = len(path)
            path.append(w)
            if len(path) == total:
                return path
            continue
        n = len(path)
        pivots = [pos[w] for w in _mid_neighbors(end, m, mp) if pos[w] < n - 2]
        good = [i for i in pivots if free(path[i + 1])]
        i = max(good) if good else rng.choice(pivots)
        path[i + 1 :] = path[:i:-1]
        pos.update(zip(path[i + 1 :], range(i + 1, n)))
    raise ConstructionError(f"middle-levels rotation-extension exceeded {4 * total} steps")


def _verify_path(path, m, mp, total):
    if len(path) != total:
        raise ConstructionError("path has the wrong length")
    if len(set(path)) != total:
        raise ConstructionError("path repeats a vertex")
    for mask in path:
        if mask.bit_count() not in (mp, mp + 1):
            raise ConstructionError("path leaves the middle levels")
    for a, b in zip(path, path[1:]):
        if (a ^ b).bit_count() != 1:
            raise ConstructionError("consecutive codewords differ in more than one bit")
    if path[0].bit_count() != mp:
        raise ConstructionError("path must start at weight m'")


# -- the exponential instance --------------------------------------------------


class GrayValuation(Valuation):
    """Size-driven submodular valuation whose size-(m'+1) bundles get a bump
    of (path position) * eps: |S| below the middle is worth |S|, above is
    worth m'+1. Ones of each codeword are player 1's items, zeros player 0's."""

    kind = "gray_exponential"

    def __init__(self, m: int, player: int, path_masks, eps):
        super().__init__(m)
        if m % 2 == 0:
            raise DomainError("need odd m")
        if player not in (0, 1):
            raise DomainError("player must be 0 or 1")
        self.player = player
        self.mp = m // 2
        self.path_masks = tuple(path_masks)
        self.L = len(self.path_masks)
        self.pos = {mask: i for i, mask in enumerate(self.path_masks)}
        self.eps = parse_money(eps)
        if self.eps <= 0 or (self.L - 1) * self.eps >= Fraction(1, 2):
            raise DomainError("need 0 < (path length - 1) * eps < 1/2")
        # the int forms' denominator E, at which E / 2 and eps * E are ints
        self._E = E = math.lcm(2, self.eps.denominator)
        self._eps_E = eps_E = self.eps.numerator * (E // self.eps.denominator)
        # closed form: min(|S|, m'+1) * E off the middle, (2m'+1) * E/2 +
        # k * eps * E on it
        mp, pos, flip = self.mp, self.pos, 0 if player == 1 else self.full_mask
        half = (2 * mp + 1) * E // 2

        def f(mask):
            s = mask.bit_count()
            return half + pos.get(mask ^ flip, 0) * eps_E if s == mp + 1 else min(s, mp + 1) * E

        self._oracle = f, E

    def codeword_of(self, bmask: int) -> int:
        return bmask if self.player == 1 else self.full_mask ^ bmask

    def k_of(self, bmask: int) -> int:
        return self.pos.get(self.codeword_of(bmask), 0)

    def designated_item(self, bmask: int) -> int:
        """The item leaving this size-(m'+1) bundle on the path's next step;
        at the path's last vertex, or off the path, the bundle's lowest item."""
        cw = self.codeword_of(bmask)
        q = self.pos.get(cw, self.L - 1)
        if q + 1 < self.L:
            flip = cw ^ self.path_masks[q + 1]
        else:
            flip = bmask & -bmask
        return flip.bit_length() - 1

    def _xos_clause(self, mask):
        row, D = self._int_clause(mask)
        return {j: Fraction(row[j], D) for j in iter_bits(mask)}

    def _int_clause(self, mask):
        """The clause of `mask` in closed form on ints: weight 1 up to size
        m', and (m'+1)/|S| above the middle; on the middle, at E = lcm(2,
        eps denominator), 1 but for the designated item's 1/2 + k * eps."""
        s = mask.bit_count()
        bits = [mask >> j & 1 for j in range(self.m)]
        if s <= self.mp:
            return bits, 1
        if s > self.mp + 1:
            g = math.gcd(self.mp + 1, s)
            return [b * ((self.mp + 1) // g) for b in bits], s // g
        E = self._E
        row = [b * E for b in bits]
        row[self.designated_item(mask)] = E // 2 + self.k_of(mask) * self._eps_E
        return row, E

    def _demand(self, p, D):
        """Best bundle at the prices p / D, on ints at E = lcm(D, 2, eps
        denominator), where every value is an int too. Ties: a middle-level
        bundle beats any other bundle and, among middle-level bundles, the
        larger path position k wins; otherwise the smaller bundle, then the
        lexicographically smaller one."""
        E = math.lcm(D, 2, self.eps.denominator)
        p = rescale(p, D, E)
        eps_E = self.eps.numerator * (E // self.eps.denominator)
        mp = self.mp
        # off the middle a bundle is worth min(|S|, m'+1), so the cheapest
        # prefix of the (price, item) order is the best bundle of its size;
        # sizes ascend, so a later prefix wins only on strictly more profit
        order = sorted(range(self.m), key=p.__getitem__)
        best_profit = best_size = cost = 0
        for s, j in enumerate(order, 1):
            cost += p[j]
            profit = min(s, mp + 1) * E - cost
            if s != mp + 1 and profit > best_profit:
                best_profit, best_size = profit, s
        # middle bundles by nondecreasing cost, worth (2m'+1)/2 + k * eps; once
        # even k = L-1 falls strictly short of the best, none later can tie
        half = (2 * mp + 1) * E // 2
        top = half + (self.L - 1) * eps_E
        flip = 0 if self.player == 1 else self.full_mask
        best_mask, best_k = mask_of(order[:best_size]), -1
        for pops, (cost, mask) in enumerate(cheapest_subsets(p, mp + 1, order), 1):
            if top - cost < best_profit:
                break
            if pops > GRAY_DEMAND_POP_CAP:
                raise CapabilityError(f"middle-level demand capped at {GRAY_DEMAND_POP_CAP} bundles")
            k = self.pos.get(mask ^ flip, 0)
            profit = half + k * eps_E - cost
            if profit > best_profit or profit == best_profit and (
                k > best_k or k == best_k and better_demand(profit, mask, profit, best_mask)
            ):
                best_profit, best_mask, best_k = profit, mask, k
        return best_mask

    def to_json(self):
        return {
            "kind": "gray_exponential",
            "m": self.m,
            "player": self.player,
            "eps": format_money(self.eps),
        }


def build_exponential_instance(m: int):
    """(v0, v1, (v0, v1), init): two mirrored gray valuations at eps = 1/(2L)
    for path length L, the same pair again as the clause oracles of
    `run_best_reply_dynamic(oracles=)`, and the path's first allocation
    (player 0 takes the zeros side, which has size m'+1)."""
    path_masks = _gray_path_masks(checked_count(m, "m"))
    eps = Fraction(1, 2 * len(path_masks))
    v0 = GrayValuation(m, 0, path_masks, eps)
    v1 = GrayValuation(m, 1, path_masks, eps)
    w0 = path_masks[0]
    init_alloc = (bundle_of(v0.full_mask ^ w0), bundle_of(w0))
    return v0, v1, (v0, v1), init_alloc


register_kind(
    "gray_exponential",
    lambda d: GrayValuation(
        d["m"],
        d["player"],
        _gray_path_masks(d["m"]),
        d["eps"],
    ),
)


# -- the dynamic -----------------------------------------------------------------


@dataclass
class DynamicStep:
    responder: int
    alloc: tuple
    winning_sum: Money


@dataclass
class DynamicTrace:
    initial_alloc: tuple
    initial_sum: Money
    rows: list = field(default_factory=list)
    responses: int = 0
    truncated: bool = False

    def exchanges(self) -> int:
        return len(self.rows)


@dataclass
class DynamicRun:
    alloc: tuple
    bids: tuple
    trace: DynamicTrace


def _won_by_1(rows) -> int:
    """The mask of items bidder 1 outbids strictly; ties go to bidder 0, as
    in resolve."""
    r0, r1 = rows
    return sum(1 << j for j in range(len(r0)) if r1[j] > r0[j])


def default_step_cap(v0, v1) -> int:
    """The dynamic's default response cap: 10,000, raised for a pair of
    GrayValuations to the 2 * C(m, m') + 2 responses of the whole path."""
    if isinstance(v0, GrayValuation) and isinstance(v1, GrayValuation):
        return max(STEP_CAP, 2 * math.comb(v0.m, v0.mp) + 2)
    return STEP_CAP


def run_best_reply_dynamic(v0, v1, init_alloc, oracles=None, step_cap=None):
    """Alternating exact-demand responses with strict-improvement gating.

    The allocation is always resolve(bids). A terminated (non-truncated) run
    has canonical clause bids, hence is traditional. The loop runs on ints
    and bundle masks: both bid rows sit at one run denominator D, which
    grows (rescaling both rows) only when a clause brings a denominator that
    does not divide it. The responder's demand is the int entry `_demand`
    on the rival's row, counted as one demand query; the strict-improvement
    test reads the responder's `int_oracle`. Each clause row is the int
    entry `oracles[i]._int_clause(mask)`, counted as one XOS query of
    bidder i; `oracles` defaults to the valuations themselves, and any
    object with that method can stand in. Trace sums, the bids and the
    result are Fractions. step_cap defaults to `default_step_cap(v0, v1)`
    responses.
    """
    valuations = (v0, v1)
    m = item_count(valuations)
    if oracles is None:
        oracles = valuations
    if step_cap is None:
        step_cap = default_step_cap(v0, v1)
    init_masks = allocation_masks(init_alloc, 2, m)
    full = v0.full_mask
    values = [v.int_oracle() for v in valuations]
    rows, D = [[0] * m, [0] * m], 1

    def clause_row(i, mask):
        """Bidder i's clause for the bundle mask from its oracle, as ints at D."""
        nonlocal D
        row, Dc = oracles[i]._int_clause(mask)
        valuations[i].ledger.xos += 1
        grown = math.lcm(D, Dc)
        if grown != D:
            rows[:] = [rescale(r, D, grown) for r in rows]
            D = grown
        row = rescale(row, Dc, D)
        if min(row) < 0:
            raise DomainError("bids must be nonnegative")
        return row

    for i in (0, 1):
        rows[i] = clause_row(i, init_masks[i])
    won = _won_by_1(rows)
    alloc = (bundle_of(full ^ won), bundle_of(won))
    trace = DynamicTrace(alloc, Fraction(sum(map(max, *rows)), D))
    responder = 1
    quiet = 0
    while quiet < 2:
        if trace.responses >= step_cap:
            trace.truncated = True
            break
        rival = rows[1 - responder]
        v = valuations[responder]
        f, Dv = values[responder]
        held = won if responder == 1 else full ^ won
        dmask = v._demand(rival, D)
        v.ledger.demand += 1
        # a strict improvement: v(demanded) - v(held) > (rival price difference) / D,
        # the difference summed over the items in one bundle but not the other
        extra = sum(rival[j] if dmask >> j & 1 else -rival[j] for j in iter_bits(dmask ^ held))
        improves = (f(dmask) - f(held)) * D > extra * Dv
        new_row = clause_row(responder, dmask if improves else held)
        if new_row != rows[responder]:
            rows[responder] = new_row
            new_won = _won_by_1(rows)
            if new_won != won:
                # the items that changed hands move from one bundle to the other
                moved = bundle_of(won ^ new_won)
                won = new_won
                alloc = (alloc[0] ^ moved, alloc[1] ^ moved)
                trace.rows.append(DynamicStep(responder, alloc, Fraction(sum(map(max, *rows)), D)))
            quiet = 0
        else:
            quiet += 1
        trace.responses += 1
        responder = 1 - responder
    return DynamicRun(alloc, money_rows(rows, D), trace)


def dynamic_trace_audit(trace: DynamicTrace):
    """Strictly increasing winning-bid sums across exchange rows."""
    last = trace.initial_sum
    for row in trace.rows:
        if row.winning_sum <= last:
            return False, {"at": row, "previous": last}
        last = row.winning_sum
    return True, None
