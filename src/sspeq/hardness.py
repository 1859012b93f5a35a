"""Sensitive valuations on the odd graph, an adaptive query adversary, and
the equilibrium characterization they support.

A sensitive valuation is determined by a sparse map of size-(m'+1) bundles to
small bump coefficients k in (0, 1/4). Its closed form by bundle size is
m'-g / |S| / max(m'+1/4+max k inside, B-clause floor) / m'+1, with literal
constants g=20, h=10 requiring m >= 43; smaller (g, h) families exist only so
exhaustive cross-checks can run at toy sizes. The adversary colors cut-off
small components of the odd graph with strictly increasing values so that no
queried vertex can be certified a local maximum until it concedes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .money import Money, format_money, parse_money, rescale
from .valuations import (
    CapabilityError,
    ConstructionError,
    DomainError,
    Valuation,
    better_demand,
    bundle_of,
    checked_count,
    checked_mask,
    cheapest_subsets,
    iter_bits,
    mask_of,
    register_kind,
)

LITERAL_G = 20
LITERAL_H = 10
KMAP_CAP = 100_000
WINDOW_QUERY_FACTOR = 10
DEMAND_PIVOT_FACTOR = 50
# the blocked-vertex index: item j lies in group j mod 7, and a mask is filed
# under the union of each pair of groups within the cliques {0,1,2} and
# {3,4,5,6}; the first 5 pairs, those within {0,1,2}, {3,4} and {5,6}, also
# serve the complement lookups (see OddGraphAdversary._clear)
_GROUP_PAIRS = ((0, 1), (0, 2), (1, 2), (3, 4), (5, 6), (3, 5), (3, 6), (4, 5), (4, 6))
# one shared unit weight for the clauses that every transcript keeps, and one
# shared zero for the searcher's unpriced items
_ONE = Fraction(1)
_ZERO = Fraction(0)


# -- odd graph ------------------------------------------------------------------


def odd_graph_vertices(mp: int):
    """All masks of size-(mp+1) subsets of [2mp+1]."""
    return [mask_of(c) for c in itertools.combinations(range(2 * mp + 1), mp + 1)]

def odd_graph_neighbors(mp: int, mask: int):
    """Neighbours in ascending sorted-bundle order: they differ only in the
    one item j added to the complement, and j ascends."""
    full = (1 << (2 * mp + 1)) - 1
    comp = full ^ mask
    return [comp | (1 << j) for j in iter_bits(mask)]


def odd_graph_partner(mp: int, mask: int, j: int) -> int:
    if not (mask >> j) & 1:
        raise DomainError("partner item must belong to the bundle")
    full = (1 << (2 * mp + 1)) - 1
    return (full ^ mask) | (1 << j)


def odd_graph_distance(mp: int, a: int, b: int) -> int:
    if a == b:
        return 0
    i = (a & b).bit_count()
    return min(2 * (mp + 1 - i), 2 * i - 1)


def odd_graph_ball_size(mp: int, radius: int) -> int:
    total = 0
    for i in range(1, mp + 2):
        d = 0 if i == mp + 1 else min(2 * (mp + 1 - i), 2 * i - 1)
        if d <= radius:
            total += math.comb(mp + 1, i) * math.comb(mp, mp + 1 - i)
    return total


def _fourth_root_floor(x: int) -> int:
    return math.isqrt(math.isqrt(x))


def query_lower_bound(m: int) -> int:
    """Smallest q with (m' q)^4 >= 2^(3m'-4), the concede query floor:
    ceil(r / m') for r the least integer with r^4 >= 2^(3m'-4)."""
    if m % 2 == 0 or m < 5:
        raise DomainError("need odd m >= 5")
    mp = m // 2
    target = 1 << (3 * mp - 4)
    r = _fourth_root_floor(target)
    if r ** 4 < target:
        r += 1
    return -(-r // mp)


# -- sensitive valuations ---------------------------------------------------------


class SensitiveValuation(Valuation):
    """Closed-form XOS valuation with sparse size-(m'+1) bumps.

    demand() maximizes over nonempty bundles only. Bumps are stored through
    `add_bump`, which also keeps `by_k`, the (k, mask) pairs in ascending k
    order. The value is the int oracle (f, E) of `_closed_form`, with E the
    lcm of 4, m'+h and the denominators of default_k and every stored k.
    """

    kind = "sensitive"

    def __init__(self, m, k_map=None, default_k=None, clause_items=None,
                 g=LITERAL_G, h=LITERAL_H):
        super().__init__(m)
        if m % 2 == 0:
            raise DomainError("need odd m")
        self.mp = m // 2
        self.g = checked_count(g, "g")
        self.h = checked_count(h, "h")
        if (self.g, self.h) == (LITERAL_G, LITERAL_H) and m < 43:
            raise DomainError("the literal family needs m >= 43")
        if self.g < 1 or self.mp - self.g < 1:
            raise DomainError("need 1 <= g < m'")
        if self.h < 2 or self.mp + self.h > m:
            raise DomainError("need 2 <= h <= m'+1")
        if default_k is None:
            default_k = Fraction(1, 2 ** (m + 4))
        self.default_k = parse_money(default_k)
        if not 0 < self.default_k < Fraction(1, 4):
            raise DomainError("default k must sit in (0, 1/4)")
        self.k_map = {}
        self.clause_items = {}
        self.by_k = []
        self._oracle = self._closed_form(math.lcm(4, self.mp + self.h, self.default_k.denominator))
        for bundle, k in dict(k_map or {}).items():
            self.add_bump(bundle, k)
        for bundle, j in dict(clause_items or {}).items():
            self.add_bump(bundle, None, j)

    def add_bump(self, bundle, k=None, clause_item=None):
        """Store bump k and/or the designated clause item of one size-(m'+1)
        bundle, given by its items or as an int mask 0 <= mask < 2^m, in
        place. Every check runs before anything is stored, and a stored bump
        is never replaced."""
        bmask = bundle if isinstance(bundle, int) else checked_mask(bundle, self.m)
        if not 0 <= bmask <= self.full_mask or bmask.bit_count() != self.mp + 1:
            raise DomainError("k_map keys must be size-(m'+1) bundles")
        if k is not None:
            k = parse_money(k)
            if not 0 < k < Fraction(1, 4):
                raise DomainError("stored k must sit in (0, 1/4)")
            if k < self.default_k:
                raise DomainError("stored bumps must not undercut the default")
            if bmask in self.k_map:
                raise DomainError("a stored bump is never replaced")
            if len(self.k_map) >= KMAP_CAP:
                raise CapabilityError(f"k_map support too large: more than {KMAP_CAP} bumps")
        if clause_item is not None:
            try:
                inside = bmask >> operator.index(clause_item) & 1
            except (TypeError, ValueError):  # not an int, or a negative shift
                inside = 0
            if not inside:
                raise DomainError("clause item must belong to its bundle")
        if k is not None:
            self.k_map[bmask] = k
            bisect.insort(self.by_k, (k, bmask))
            # the oracle reads by_k live; only a new denominator moves E
            if self._oracle[1] % k.denominator:
                self._oracle = self._closed_form(math.lcm(self._oracle[1], k.denominator))
        if clause_item is not None:
            self.clause_items[bmask] = int(clause_item)

    def b_floor(self, s: int) -> Money:
        return Fraction((self.mp + 1) * s, self.mp + self.h)

    def stored_bump_inside(self, mask: int):
        """(k, bmask) of the largest stored bump inside `mask`, ties to the
        smallest sorted bundle, or None.

        Walks `by_k` from the largest k down and stops once k drops below
        the first hit. Stored bumps never undercut default_k, so default_k
        counts only when this returns None."""
        hit = None
        for k, bmask in reversed(self.by_k):
            if hit is not None and k < hit[0]:
                break
            if bmask & mask == bmask and (hit is None or better_demand(k, bmask, *hit)):
                hit = (k, bmask)
        return hit

    def _closed_form(self, E: int):
        """(f, E) with f(mask) == E * v(mask), for E a multiple of 4, m'+h and
        every k's denominator: in the window, max(m'+1/4+k, b_floor(s)) * E.
        f raises DomainError when it reads a k whose denominator does not
        divide E: a bump stored after f was taken has made it stale."""
        mp, g, h = self.mp, self.g, self.h
        quarter, unit = mp * E + E // 4, E // (mp + h)

        def f(mask):
            s = mask.bit_count()
            if s <= mp:
                return max(s, mp - g) * E if s else 0
            if s >= mp + h:
                return (mp + 1) * E
            hit = self.stored_bump_inside(mask)
            k = self.default_k if hit is None else hit[0]
            if E % k.denominator:
                raise DomainError(f"stale value oracle: bump k = {k} is not exact at E = {E}")
            return max(quarter + k.numerator * (E // k.denominator), (mp + 1) * s * unit)

        return f, E

    def sensitive_clause(self, S):
        """Clause dict plus family tag, preferring C over A over M over B."""
        return self._tagged_clause(checked_mask(S, self.m))

    def _tagged_clause(self, mask: int):
        """`sensitive_clause` of the bundle mask."""
        s = mask.bit_count()
        if s == 0:
            return {}, "A"
        low = (mask & -mask).bit_length() - 1
        if s <= self.mp - self.g:
            return {low: Fraction(self.mp - self.g)}, "C"
        if s <= self.mp:
            return {j: Fraction(1) for j in iter_bits(_padded(mask, self.mp))}, "A"
        w = Fraction(self.mp + 1, self.mp + self.h)
        if s >= self.mp + self.h:
            return {j: w for j in itertools.islice(iter_bits(mask), self.mp + self.h)}, "B"
        hit = self.stored_bump_inside(mask)
        if hit is None:
            hit = (self.default_k, mask_of(itertools.islice(iter_bits(mask), self.mp + 1)))
        k, core_mask = hit
        if self.mp + Fraction(1, 4) + k < self.b_floor(s):
            return {j: w for j in iter_bits(_padded(mask, self.mp + self.h))}, "B"
        clause = {i: Fraction(1) for i in iter_bits(core_mask)}
        low = (core_mask & -core_mask).bit_length() - 1
        clause[self.clause_items.get(core_mask, low)] = Fraction(1, 4) + k
        return clause, "M"

    def _xos_clause(self, mask):
        return self._tagged_clause(mask)[0]

    def _demand(self, p, D):
        E = math.lcm(D, self._oracle[1])
        return _sparse_demand(self, rescale(p, D, E), E)[1]

    def to_json(self):
        return {
            "kind": "sensitive",
            "m": self.m,
            "g": self.g,
            "h": self.h,
            "default_k": format_money(self.default_k),
            "k_map": sorted(
                [sorted(bundle_of(bmask)), format_money(k)] for bmask, k in self.k_map.items()
            ),
            "clause_items": sorted(
                [sorted(bundle_of(bmask)), j] for bmask, j in self.clause_items.items()
            ),
        }


def _padded(mask: int, size: int) -> int:
    """mask and its lowest outside items, up to `size` items."""
    while mask.bit_count() < size:
        mask |= ~mask & (mask + 1)
    return mask


register_kind(
    "sensitive",
    lambda d: SensitiveValuation(
        d["m"],
        k_map={frozenset(b): k for b, k in d.get("k_map", [])},
        default_k=d.get("default_k"),
        clause_items={frozenset(b): j for b, j in d.get("clause_items", [])},
        g=d.get("g", LITERAL_G),
        h=d.get("h", LITERAL_H),
    ),
)


@dataclass
class LocalMaxCertificate:
    bundle: frozenset
    item: int
    value: Money
    partner_value: Money


def is_j_local_max(sv: SensitiveValuation, S, j: int) -> bool:
    cert = j_local_max_certificate(sv, S, j)
    return cert.value >= cert.partner_value


def j_local_max_certificate(sv: SensitiveValuation, S, j: int) -> LocalMaxCertificate:
    mask, bit = checked_mask(S, sv.m), checked_mask((j,), sv.m)
    if mask.bit_count() != sv.mp + 1:
        raise DomainError("local maxima live on size-(m'+1) bundles")
    j = bit.bit_length() - 1
    partner = odd_graph_partner(sv.mp, mask, j)
    return LocalMaxCertificate(bundle_of(mask), j, sv._value_mask(mask), sv._value_mask(partner))


def eq_char_check(sv: SensitiveValuation, alloc) -> bool:
    """Two-bidder allocation sizes must be (m', m'+1) and the large side a
    j-local maximum through its recorded M clause."""
    if len(alloc) != 2:
        raise DomainError("the characterization is for two bidders")
    a, b = (checked_mask(S, sv.m) for S in alloc)
    if a | b != sv.full_mask or a & b:
        raise DomainError("allocation must partition the items")
    if sorted((a.bit_count(), b.bit_count())) != [sv.mp, sv.mp + 1]:
        return False
    big = a if a.bit_count() == sv.mp + 1 else b
    clause, tag = sv._tagged_clause(big)
    if tag != "M":
        return False
    designated = [j for j, w in clause.items() if w != 1]
    if len(designated) != 1:
        return False
    return is_j_local_max(sv, iter_bits(big), designated[0])


# -- sparse exact demand -----------------------------------------------------------


def sparse_demand_oracle(sv: SensitiveValuation, prices):
    """Exact profit maximizer over nonempty bundles, not counted in the
    ledger: the bundle of `sv._demand` at the checked prices."""
    return bundle_of(sv._demand(*sv._check_prices(prices)))


def _sparse_demand(sv: SensitiveValuation, cost, D: int):
    """(profit, mask, order, floor): the demanded nonempty bundle and its
    profit at D, for int item costs at D, a multiple of the denominator of
    `sv.int_oracle()`, then the items by (cost, item) and each window size's
    B-clause floor at D, with which `OddGraphAdversary.demand_query` folds
    the bumps its pivots store through `_pad_bump`.

    Candidates are the cheapest prefix of every size (valued by the closed
    form off the window) plus, for window sizes, every stored bundle padded
    with the cheapest outsiders. A stored bundle inside a window prefix
    yields the identical padded candidate, so the prefix only needs its
    default-bump value and only when some subset is unstored. Stored
    bundles are walked by descending k; the walk stops at the first whose
    profit upper bound (value cap minus the cheapest conceivable cost of
    its size) falls strictly below the running best, since the bound only
    falls with k and the best only rises.
    """
    mp, h = sv.mp, sv.h
    order = sorted(range(sv.m), key=cost.__getitem__)
    prefix_cost = list(itertools.accumulate(map(cost.__getitem__, order), initial=0))
    prefix_mask = list(itertools.accumulate((1 << j for j in order), operator.or_, initial=0))
    window = range(mp + 1, mp + h)
    floor = [(mp + 1) * s * (D // (mp + h)) for s in window]
    quarter = mp * D + D // 4
    sizes = [*range(1, mp + 1), *range(mp + h, sv.m + 1)]
    profits = [min(max(s, mp - sv.g), mp + 1) * D - prefix_cost[s] for s in sizes]
    best = max(profits)
    best = best, prefix_mask[sizes[profits.index(best)]]
    stored = len(sv.k_map)
    default_value = quarter + sv.default_k.numerator * (D // sv.default_k.denominator)
    for s, fl in zip(window, floor):
        pm = prefix_mask[s]
        if math.comb(s, mp + 1) <= stored and all(
            pm ^ mask_of(drop) in sv.k_map for drop in itertools.combinations(order[:s], s - mp - 1)
        ):
            continue
        profit = max(fl, default_value) - prefix_cost[s]
        if better_demand(profit, pm, *best):
            best = profit, pm
    base_cost = prefix_cost[mp + 1]
    floor_cap = max(fl - prefix_cost[s] for s, fl in zip(window, floor))
    for k, bmask in reversed(sv.by_k):
        mterm = quarter + k.numerator * (D // k.denominator)
        if mterm - base_cost < best[0] and floor_cap < best[0]:
            break
        best = _pad_bump(best, mterm, bmask, cost, order, floor)
    return *best, order, floor


def _pad_bump(best, mterm, bmask, cost, order, floor):
    """`best`, a (profit, mask) pair, against bmask padded with its cheapest
    outsiders (first in `order`) to each window size, at value max(mterm,
    the size's floor): the cheapest superset of that size, which among equal
    costs holds the smallest items and so wins the demand tie rule."""
    c, mask = sum(map(cost.__getitem__, iter_bits(bmask))), bmask
    outside = (j for j in order if not bmask >> j & 1)
    for fl in floor:
        profit = max(mterm, fl) - c
        if profit >= best[0] and better_demand(profit, mask, *best):
            best = profit, mask
        j = next(outside)
        c, mask = c + cost[j], mask | 1 << j
    return best


# -- the adversary -----------------------------------------------------------------


@dataclass
class AdversaryAnswer:
    vertex: frozenset
    value: Money
    k: Money
    clause: dict | None
    clause_item: int | None
    replay: bool
    conceded: bool


@dataclass
class _ColoredVertex:
    value: Money
    k: Money
    clause_item: int | None
    order: int


class OddGraphAdversary:
    """Adaptive value/clause answers over the odd graph on size-(m'+1) bundles.

    Small components cut off from the uncolored region are colored with
    distance-graded values before each fresh query is assigned the next
    counter value; the recorded clause always points at a later, larger
    vertex, so no transcript certifies a local maximum before CONCEDE.
    """

    def __init__(self, m: int, g=LITERAL_G, h=LITERAL_H, seed: int = 0):
        # the live view; its default default_k, 2^-(m+4), is eps / 2
        self._view = SensitiveValuation(m, g=g, h=h)
        self._synced = 0
        self.m = m
        self.mp = self._view.mp
        self.g = self._view.g
        self.h = self._view.h
        self.literal = (self.g, self.h) == (LITERAL_G, LITERAL_H)
        self.eps = Fraction(1, 2 ** (m + 3))
        self.default_k = self._view.default_k
        self.c_small = _fourth_root_floor(1 << (3 * self.mp - 4)) if 3 * self.mp > 4 else 1
        self.full_mask = (1 << m) - 1
        self.colored = {}
        self.order = []
        self.q_set = set()
        self.x = 0
        self.conceded = False
        self.transcript = []
        self.stats = []
        self.rng = random.Random(seed)
        self.walk_ok = odd_graph_ball_size(self.mp, 4) > self.c_small
        groups = [mask_of(range(g, m, 7)) for g in range(7)]
        self._pairs = [(groups[a] | groups[b], {}) for a, b in _GROUP_PAIRS]
        self._comp_pairs = self._pairs[:5]  # see _clear

    def num_queries(self) -> int:
        return len(self.q_set)

    def _blocked(self, mask) -> bool:
        return mask in self.colored or mask in self.q_set

    def _index(self, mask: int) -> None:
        """Add a blocked vertex (the query or a colored one) to the pair index.
        Each key holds a tuple, smaller than a list: most keys of a spread-out
        search hold one to three masks."""
        for key, table in self._pairs:
            k = mask & key
            table[k] = table.get(k, ()) + (mask,)

    def _clear(self, v: int) -> bool:
        """True when no blocked vertex w lies within odd-graph distance 4 of v,
        i.e. no i = |v & w| has i <= 2 or i >= m'-1.

        Such a w differs from v in at most 4 items (i >= m'-1), so agrees
        with v on 3 of the 7 groups, two of them in one clique of {0,1,2}
        and {3,4,5,6}: w is filed under v's key for one of the 9 pairs. Or
        it differs from the complement of v in 2i-1 <= 3 items (i <= 2), so
        agrees with it on 4 groups, two of them in one of {0,1,2}, {3,4} and
        {5,6}: one of those 5 pairs' tables files it under the complement's
        key. Only the candidates of these 9 + 5 lookups are tested."""
        hi = self.mp - 2
        comp = self.full_mask ^ v
        for key, table in self._pairs:
            for w in table.get(v & key, ()):
                if not 3 <= (v & w).bit_count() <= hi:
                    return False
        for key, table in self._comp_pairs:
            for w in table.get(comp & key, ()):
                if not 3 <= (v & w).bit_count() <= hi:
                    return False
        return True

    def _component(self, start: int):
        """(reached, materialized, is_small) for start's component in the
        uncolored non-queried region; capped BFS is the only small verdict.

        First a random walk of at most 8(m'+2) steps: each step draws one
        pick in [0, m'] (`getrandbits` redrawn above m', as `randrange(m'+1)`
        draws it) and moves to the neighbour that adds the pick-th
        item of the current vertex to its complement, unless that neighbour
        is blocked. The item is found from the nearer end of the vertex.
        Every 4th step tests whether the current vertex is clear; a clear
        one means the component is not small. Without one, a BFS capped at
        c_small vertices decides."""
        reached = {start}
        if self.walk_ok:
            colored, q_set, clear = self.colored, self.q_set, self._clear
            getrandbits, full = self.rng.getrandbits, self.full_mask
            mp = self.mp
            half, bits = (mp + 1) // 2, (mp + 1).bit_length()
            cur = start
            for _ in range(2 * (mp + 2)):
                for _ in range(4):
                    pick = getrandbits(bits)
                    while pick > mp:
                        pick = getrandbits(bits)
                    rest = cur
                    if pick < half:
                        for _ in range(pick):
                            rest &= rest - 1
                        b = rest & -rest
                    else:
                        for _ in range(mp - pick):
                            rest ^= 1 << rest.bit_length() - 1
                        b = 1 << rest.bit_length() - 1
                    cand = (full ^ cur) | b
                    if cand not in colored and cand not in q_set:
                        cur = cand
                        reached.add(cand)
                if clear(cur):
                    return reached, len(reached), False
        visited = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in odd_graph_neighbors(self.mp, v):
                if w in visited or self._blocked(w):
                    continue
                visited.add(w)
                if len(visited) > self.c_small:
                    reached |= visited
                    return reached, len(reached), False
                queue.append(w)
        reached |= visited
        return visited, len(reached), True

    def _bump(self) -> Money:
        self.x += 1
        k = self.x * self.eps
        if k >= Fraction(1, 4):
            raise ConstructionError("counter escaped the k range")
        return k

    def _color_component(self, qmask: int, comp):
        dist = {}
        frontier = deque()
        for w in odd_graph_neighbors(self.mp, qmask):
            if w in comp and w not in dist:
                dist[w] = 1
                frontier.append(w)
        while frontier:
            v = frontier.popleft()
            for w in odd_graph_neighbors(self.mp, v):
                if w in comp and w not in dist:
                    dist[w] = dist[v] + 1
                    frontier.append(w)
        if len(dist) != len(comp):
            raise ConstructionError("component must hang off the query")
        for w in sorted(comp, key=lambda v: (-dist[v], tuple(iter_bits(v)))):
            k = self._bump()
            parent = next(
                p
                for p in odd_graph_neighbors(self.mp, w)
                if (p == qmask and dist[w] == 1) or dist.get(p, -1) == dist[w] - 1
            )
            j = (w & parent).bit_length() - 1
            self.colored[w] = _ColoredVertex(self.mp + Fraction(1, 4) + k, k, j, len(self.order))
            self.order.append(w)
            self._index(w)

    def answer(self, S) -> AdversaryAnswer:
        mask = checked_mask(S, self.m)
        if mask.bit_count() != self.mp + 1:
            raise DomainError("queries must be size-(m'+1) bundles")
        if not isinstance(S, frozenset):  # the transcript keeps a frozenset
            S = bundle_of(mask)
        rec = self.colored.get(mask)
        replay = rec is not None
        self.q_set.add(mask)
        materialized = 0
        if not replay:
            self._index(mask)
            known_big = set()
            for nb in odd_graph_neighbors(self.mp, mask):
                if self._blocked(nb) or nb in known_big:
                    continue
                reached, used, small = self._component(nb)
                materialized += used
                if small:
                    self._color_component(mask, reached)
                else:
                    known_big |= reached
            k = self._bump()
            target = next((nb for nb in odd_graph_neighbors(self.mp, mask) if nb not in self.colored), None)
            j = None if target is None else (mask & target).bit_length() - 1
            self.conceded |= j is None
            rec = _ColoredVertex(self.mp + Fraction(1, 4) + k, k, j, len(self.order))
            self.colored[mask] = rec
            self.order.append(mask)
        ans = AdversaryAnswer(
            S, rec.value, rec.k, self._clause_of(mask, rec), rec.clause_item, replay, rec.clause_item is None
        )
        self.transcript.append(ans)
        self.stats.append({"materialized": materialized, "replay": replay})
        return ans

    def _clause_of(self, mask: int, rec: _ColoredVertex):
        if rec.clause_item is None:
            return None
        clause = dict.fromkeys(iter_bits(mask), _ONE)
        clause[rec.clause_item] = Fraction(1, 4) + rec.k
        return clause

    def view(self) -> SensitiveValuation:
        """The sensitive valuation realized so far (defaults elsewhere).

        Always the same live object: each call first stores the vertices
        colored since the last call, so its ledger accumulates."""
        for mask in self.order[self._synced:]:
            rec = self.colored[mask]
            self._view.add_bump(mask, rec.k, rec.clause_item)
            self._synced += 1
        return self._view

    def value_query(self, S) -> Money:
        """Value answers for any bundle size; window sizes may force vertex
        queries on their uncolored size-(m'+1) subsets."""
        mask = checked_mask(S, self.m)
        s = mask.bit_count()
        if s == self.mp + 1:
            return self.answer(bundle_of(mask)).value
        if s <= self.mp or s >= self.mp + self.h:
            return self.view()._value_mask(mask)
        pending = [c for c in itertools.combinations(iter_bits(mask), self.mp + 1) if mask_of(c) not in self.colored]
        if len(pending) > WINDOW_QUERY_FACTOR * self.m:
            raise CapabilityError(
                "window value query would force too many vertex queries: "
                f"{len(pending)} > {WINDOW_QUERY_FACTOR} * m"
            )
        for c in pending:
            self.answer(frozenset(c))
        return self.view()._value_mask(mask)

    def demand_query(self, prices):
        """Exact demand against the realized map; while an unassigned vertex
        could still beat the best determined profit, the cheapest one is
        processed as a fresh query. Profits are ints at one D that eps also
        divides, so every pivot's answer m'+1/4+x*eps is exact there.

        One `_sparse_demand` runs before the pivots; then only the bumps
        stored since are folded in. No k undercuts default_k, so a new bump T
        lifts v only on T's window-size supersets, to max(v, m'+1/4+k_T),
        and there T padded by `_pad_bump` is the cheapest and wins its ties:
        the fold is the demand of the map after the pivots."""
        return bundle_of(self._demand_query(prices)[1])

    def _demand_query(self, prices):
        """(profit, mask, D) of `demand_query`, the profit an int at D."""
        view = self.view()
        p, Dp = view._check_prices(prices)
        D = math.lcm(Dp, self.eps.denominator, view.int_oracle()[1])
        cost = rescale(p, Dp, D)
        *demand, order, floor = _sparse_demand(view, cost, D)
        best, synced = demand[0], len(self.order)
        half = self.mp * D + D // 2
        processed = 0
        for c, mask in cheapest_subsets(cost, self.mp + 1, order):
            if mask in self.colored:
                continue
            if half - c <= best:
                break
            processed += 1
            if processed > DEMAND_PIVOT_FACTOR * self.m:
                raise CapabilityError(
                    f"demand pivoting exceeded its query cap {DEMAND_PIVOT_FACTOR} * m"
                )
            value = self.answer(bundle_of(mask)).value
            best = max(best, value.numerator * (D // value.denominator) - c)
        quarter = self.mp * D + D // 4
        for mask in self.order[synced:]:
            k = self.colored[mask].k
            demand = _pad_bump(demand, quarter + k.numerator * (D // k.denominator), mask, cost, order, floor)
        return *demand, D


def adversary_audit(adv: OddGraphAdversary):
    """Transcript realizability and safety checks; bound assertions only
    apply to the literal family."""
    problems = []
    seen = set()
    last_value = None
    view = adv.view()
    k_map = {mask: rec.k for mask, rec in adv.colored.items()}
    clause_items = {
        mask: rec.clause_item for mask, rec in adv.colored.items() if rec.clause_item is not None
    }
    E = math.lcm(4, view.mp + view.h, view.default_k.denominator, *(k.denominator for k in k_map.values()))
    if (
        view.k_map != k_map
        or view.clause_items != clause_items
        or view.by_k != sorted((k, mask) for mask, k in k_map.items())
        or view.int_oracle()[1] != E
    ):
        problems.append(("view-drift", len(adv.colored)))
    for mask in adv.order:
        if mask in seen:
            problems.append(("reassigned", bundle_of(mask)))
        seen.add(mask)
        rec = adv.colored[mask]
        if last_value is not None and rec.value <= last_value:
            problems.append(("value-not-increasing", bundle_of(mask)))
        last_value = rec.value
        if not 0 < rec.k < Fraction(1, 4):
            problems.append(("k-out-of-range", bundle_of(mask)))
        if view._value_mask(mask) != rec.value:
            problems.append(("value-mismatch", bundle_of(mask)))
        if rec.clause_item is not None:
            partner = odd_graph_partner(adv.mp, mask, rec.clause_item)
            if partner in adv.colored:
                prec = adv.colored[partner]
                if prec.order <= rec.order or prec.value <= rec.value:
                    problems.append(("partner-not-later-larger", bundle_of(mask)))
    for ans in adv.transcript:
        mask = mask_of(ans.vertex)
        rec = adv.colored.get(mask)
        if rec is None or rec.value != ans.value:
            problems.append(("transcript-mismatch", tuple(sorted(ans.vertex))))
        elif ans.clause is not None:
            legal = sum(ans.clause.values()) == ans.value and all(
                (mask >> i) & 1 for i in ans.clause
            )
            if not legal:
                problems.append(("clause-not-attaining", tuple(sorted(ans.vertex))))
    if adv.literal:
        cap = (adv.c_small + 1) * (adv.mp + 2)
        for i, st in enumerate(adv.stats):
            if st["materialized"] > cap:
                problems.append(("materialization-cap", i))
        if adv.conceded and adv.num_queries() < query_lower_bound(adv.m):
            problems.append(("concede-before-bound", adv.num_queries()))
    return (not problems), problems


# -- searchers ----------------------------------------------------------------------


@dataclass
class SearchResult:
    queries: int
    conceded: bool
    certified: bool
    certificate: LocalMaxCertificate | None = None
    steps: int = 0


class _CertTracker:
    """Local-max certification from revealed answers only, both directions."""

    def __init__(self, mp):
        self.mp = mp
        self.known = {}
        self.by_partner = {}
        self.hit = None
        self.seen = 0

    def sync(self, transcript):
        """Add the rows past the last sync; the certificate, if any."""
        for ans in transcript[self.seen:]:
            self.add(ans)
        self.seen = len(transcript)
        return self.hit

    def add(self, ans: AdversaryAnswer):
        mask = mask_of(ans.vertex)
        if mask in self.known:
            return
        self.known[mask] = ans
        if ans.clause_item is not None:
            partner = odd_graph_partner(self.mp, mask, ans.clause_item)
            other = self.known.get(partner)
            if other is not None and other.value <= ans.value:
                self.hit = LocalMaxCertificate(
                    ans.vertex, ans.clause_item, ans.value, other.value
                )
            self.by_partner.setdefault(partner, []).append(mask)
        for waiting in self.by_partner.get(mask, []):
            wans = self.known[waiting]
            if ans.value <= wans.value:
                self.hit = LocalMaxCertificate(
                    wans.vertex, wans.clause_item, wans.value, ans.value
                )


def _search(adv: OddGraphAdversary, budget: int, first, step) -> SearchResult:
    """Answer `first`, then each vertex `step(S, ans)` names, until the budget
    is spent, the adversary concedes, the revealed rows certify a local
    maximum or `step` returns None. Rows answered inside `step` (demand
    pivots) count toward the certificate."""
    tracker = _CertTracker(adv.mp)
    steps = 0
    S = first
    while S is not None and adv.num_queries() < budget:
        ans = adv.answer(S)
        steps += 1
        if tracker.sync(adv.transcript) or ans.conceded:
            break
        S = step(S, ans)
        if tracker.sync(adv.transcript):
            break
    return SearchResult(adv.num_queries(), adv.conceded, tracker.hit is not None, tracker.hit, steps)


def hill_climb_search(adv: OddGraphAdversary, budget: int, start=None) -> SearchResult:
    """Follow each answer's designated item to its partner vertex."""

    def step(S, ans):
        return bundle_of(odd_graph_partner(adv.mp, mask_of(ans.vertex), ans.clause_item))

    first = start if start is not None else frozenset(range(adv.mp + 1))
    return _search(adv, budget, first, step)


def random_probe_search(adv: OddGraphAdversary, budget: int, seed: int = 0) -> SearchResult:
    """Query uniformly random fresh vertices."""
    rng = random.Random(seed)
    asked = set()

    def fresh(*_):
        draws = (frozenset(rng.sample(range(adv.m), adv.mp + 1)) for _ in range(64))
        combos = map(frozenset, itertools.combinations(range(adv.m), adv.mp + 1))
        S = next((c for c in itertools.chain(draws, combos) if c not in asked), None)
        if S is not None:
            asked.add(S)
        return S

    return _search(adv, budget, fresh(), fresh)


def best_reply_search(adv: OddGraphAdversary, budget: int) -> SearchResult:
    """Two simulated bidders: the large side bids its answered clause, the
    small side responds with an exact demand (pivots count as queries)."""

    def step(big, ans):
        try:
            D = adv.demand_query([ans.clause.get(j, _ZERO) for j in range(adv.m)])
        except CapabilityError:
            D = big
        if len(D) == adv.mp + 1 and D != big:
            return D
        return bundle_of(odd_graph_partner(adv.mp, mask_of(big), ans.clause_item))

    return _search(adv, budget, frozenset(range(adv.mp + 1)), step)


SEARCHERS = {
    "hill": hill_climb_search,
    "random": random_probe_search,
    "bestreply": best_reply_search,
}


# -- isoperimetry --------------------------------------------------------------------


ISO_EXHAUSTIVE_CAP = 22


def isoperimetric_check(n: int, samples: int | None = None, seed: int = 0):
    """Max internal-edge counts per subset size in O_n, with the exact bound
    2^(3E) <= k^(2k) and the neighbor corollary k^(4k) >= 2^(3n(k-|N|))."""
    if n < 2:
        raise DomainError("need n >= 2")
    verts = [mask_of(c) for c in itertools.combinations(range(2 * n - 1), n - 1)]
    nv = len(verts)
    if samples is None and nv > ISO_EXHAUSTIVE_CAP:
        raise CapabilityError(
            f"exhaustive mode needs a small odd graph: {nv} vertices > {ISO_EXHAUSTIVE_CAP}"
        )
    adj = [0] * nv
    for a in range(nv):
        for b in range(a + 1, nv):
            if verts[a] & verts[b] == 0:
                adj[a] |= 1 << b
                adj[b] |= 1 << a

    max_edges = {}
    failures = []

    def scan(subset_mask: int):
        k = subset_mask.bit_count()
        if k < 1:
            return
        edges = 0
        nbhd = 0
        v = subset_mask
        while v:
            low = v & -v
            idx = low.bit_length() - 1
            edges += (adj[idx] & subset_mask).bit_count()
            nbhd |= adj[idx]
            v ^= low
        edges //= 2
        if k not in max_edges or edges > max_edges[k]:
            max_edges[k] = edges
        if 2 ** (3 * edges) > k ** (2 * k):
            failures.append(("edge-bound", k, edges))
        outside = (nbhd & ~subset_mask).bit_count()
        if k > outside and k ** (4 * k) < 2 ** (3 * n * (k - outside)):
            failures.append(("neighbor-bound", k, outside))

    if samples is None:
        for subset_mask in range(1, 1 << nv):
            scan(subset_mask)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        for a in range(nv):
            for b in range(a + 1, nv):
                scan((1 << a) | (1 << b))
        for _ in range(samples):
            k = rng.randint(2, nv)
            subset_mask = 0
            for idx in rng.sample(range(nv), k):
                subset_mask |= 1 << idx
            scan(subset_mask)
        mode = "sampled"
    return {
        "n": n,
        "vertices": nv,
        "mode": mode,
        "max_edges": dict(sorted(max_edges.items())),
        # floor(2k log2(k) / 3) == floor(floor(log2(k^(2k))) / 3), in integers
        "bound_floor": {k: ((k ** (2 * k)).bit_length() - 1) // 3 for k in sorted(max_edges)},
        "ok": not failures,
        "failures": failures,
    }
