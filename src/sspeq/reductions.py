"""Two-bidder subadditive gadget over set-pair systems, plus the max-cut
correspondence between 1-flip-optimal cuts and procedure-bid equilibria.

Set-pair valuations take values in {0, 1, 2}: 2 for big bundles or a flagged
own pair, 1 otherwise. With a commonly flagged pair index the tiny-bid
witness is an equilibrium; without one, an unprotected set (value 2, rival
bids summing below 1) yields a strictly improving deviation, found by the
flagged-pair case split with a generic scan as fallback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .money import Money, checked_money, format_money
from .valuations import (
    ConstructionError,
    CoverageValuation,
    DomainError,
    Valuation,
    better_demand,
    checked_count,
    checked_mask,
    iter_bits,
    mask_of,
    register_kind,
)
from .auction import allocation_masks, check_bids, is_pure_nash_no_overbid, item_count, resolve
from .stealing import compute_bids, find_steal, owner_first

SETPAIR_RETRY_FACTOR = 4000


# -- set-pair systems ---------------------------------------------------------


@dataclass
class SetPairSystem:
    m: int
    pairs: list

    def count(self) -> int:
        return len(self.pairs)

    def to_json(self):
        return {
            "m": self.m,
            "pairs": [[sorted(a), sorted(b)] for a, b in self.pairs],
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["m"], [(frozenset(a), frozenset(b)) for a, b in d["pairs"]])


def verify_set_pair_system(system: SetPairSystem):
    """All definition invariants by exact set arithmetic."""
    m = system.m
    problems = []
    if m % 8 != 0 or m < 8:
        problems.append(("m-not-multiple-of-8", m))
        return False, problems
    quarter, eighth = m // 4, m // 8
    pairs = [(checked_mask(a, m), checked_mask(b, m)) for a, b in system.pairs]
    for r, (a, b) in enumerate(pairs):
        if a.bit_count() != quarter or b.bit_count() != quarter:
            problems.append(("pair-size", r))
        if a & b:
            problems.append(("pair-not-disjoint", r))
    for r, (a1, _) in enumerate(pairs):
        for l, (_, b2) in enumerate(pairs):
            if r == l:
                continue
            cross = (a1 & b2).bit_count()
            if not 0 < cross <= eighth:
                problems.append(("cross-intersection", r, l, cross))
    return (not problems), problems


def build_good_set_pair_system(m: int, count: int, seed: int = 0) -> SetPairSystem:
    """Rejection-sampled system; invariants re-verified before return."""
    if m % 8 != 0 or m < 8:
        raise DomainError("need m a multiple of 8, at least 8")
    if count < 1:
        raise DomainError("need count >= 1")
    rng = random.Random(seed)
    quarter, eighth = m // 4, m // 8
    pairs = []
    budget = SETPAIR_RETRY_FACTOR * count
    for _ in range(budget):
        a = frozenset(rng.sample(range(m), quarter))
        b = frozenset(rng.sample(sorted(frozenset(range(m)) - a), quarter))
        if all(0 < len(a & b2) <= eighth and 0 < len(a2 & b) <= eighth for a2, b2 in pairs):
            pairs.append((a, b))
            if len(pairs) == count:
                break
    else:
        raise ConstructionError(
            f"set-pair sampling exhausted its retries: {budget} samples = {SETPAIR_RETRY_FACTOR} * count"
        )
    system = SetPairSystem(m, pairs)
    good, problems = verify_set_pair_system(system)
    if not good:
        raise ConstructionError(f"sampled system failed verification: {problems}")
    return system


def _check_flags(system: SetPairSystem, flags) -> tuple:
    """The flags as a tuple of ints, one bit per pair of the system."""
    flags = tuple(int(f) for f in flags)
    if len(flags) != system.count() or any(f not in (0, 1) for f in flags):
        raise DomainError("flags must be one bit per pair")
    return flags


class SetPairValuation(Valuation):
    """{0,1,2}-valued subadditive valuation from a side of a set-pair system."""

    kind = "set_pair"

    def __init__(self, system: SetPairSystem, flags, player: int):
        super().__init__(system.m)
        if player not in (0, 1):
            raise DomainError("player must be 0 or 1")
        self.system = system
        self.flags = _check_flags(system, flags)
        self.player = player
        self.threshold = threshold = 3 * system.m // 4 + 1
        self.flagged_masks = flagged = [
            checked_mask(pair[player], system.m)
            for pair, f in zip(system.pairs, self.flags)
            if f == 1
        ]

        def value(mask):
            if mask == 0:
                return 0
            if mask.bit_count() >= threshold or any(fm & mask == fm for fm in flagged):
                return 2
            return 1

        self._oracle = value, 1

    def flagged_pairs(self):
        return [
            pair[self.player]
            for pair, f in zip(self.system.pairs, self.flags)
            if f == 1
        ]

    def to_json(self):
        return {
            "kind": "set_pair",
            "system": self.system.to_json(),
            "flags": list(self.flags),
            "player": self.player,
        }


register_kind(
    "set_pair",
    lambda d: SetPairValuation(SetPairSystem.from_json(d["system"]), d["flags"], d["player"]),
)


def equilibrium_witness(system: SetPairSystem, flags1, flags2, k: int):
    """Tiny bids on the commonly flagged pair; both utilities are exactly 2."""
    flags1, flags2 = _check_flags(system, flags1), _check_flags(system, flags2)
    k = checked_count(k, "pair index")
    if not (0 <= k < system.count()):
        raise DomainError("pair index out of range")
    if not (flags1[k] == 1 and flags2[k] == 1):
        raise DomainError("the witness needs a commonly flagged pair")
    m = system.m
    eps = Fraction(1, 4 * m)
    rows = []
    for side in (0, 1):
        row = [Fraction(0)] * m
        for j in iter_bits(checked_mask(system.pairs[k][side], m)):
            row[j] = eps
        rows.append(tuple(row))
    return tuple(rows)


@dataclass
class UnprotectedDeviation:
    bidder: int
    unprotected: frozenset
    case: str
    rival_total: Money
    bids: tuple
    expected_utility: Money


def find_unprotected_set(valuations, bids):
    """Weak-side deviation through an unprotected set, or None.

    Follows the flagged-pair case split: a flagged pair T with rival bids
    summing below 1 wins outright; if the sum is exactly 1 and the rival
    bids nothing off T, all items but one positive-bid item work. A generic
    scan over cheapest big prefixes, flagged pairs, and one-item deletions
    decides existence otherwise. Both bidders must be SetPairValuations on
    the same m items, with one nonnegative bid row each.
    """
    if len(valuations) != 2:
        raise DomainError("the gadget is a two-bidder game")
    if not all(isinstance(v, SetPairValuation) for v in valuations):
        raise DomainError("the gadget needs two SetPairValuation bidders")
    m = item_count(valuations)
    bids = check_bids(bids, n=2, m=m)
    alloc, _ = resolve(bids)
    weak = None
    for i in (0, 1):
        if valuations[i]._value_mask(mask_of(alloc[i])) <= 1:
            weak = i
            break
    if weak is None:
        raise DomainError("no weak side: both bundles have value 2")
    dev = valuations[weak]
    rival = bids[1 - weak]
    items = frozenset(range(m))

    def rival_sum(S):
        return sum((rival[j] for j in S), Fraction(0))

    def finish(U, case):
        total = rival_sum(U)
        delta = (1 - total) / (m + 1)
        row = [Fraction(0)] * m
        for j in U:
            row[j] = rival[j] + delta
        return UnprotectedDeviation(weak, U, case, total, tuple(row), 2 - total)

    for T in dev.flagged_pairs():
        if rival_sum(T) < 1:
            return finish(T, "flagged-pair")
    for T in dev.flagged_pairs():
        if rival_sum(T) == 1 and all(rival[j] == 0 for j in items - T):
            jp = min(j for j in T if rival[j] > 0)
            return finish(items - {jp}, "all-but-one")
    order = sorted(range(m), key=rival.__getitem__)
    candidates = [frozenset(order[: dev.threshold])]
    candidates.extend(dev.flagged_pairs())
    candidates.extend(items - {j} for j in range(m))
    best = None
    for U in candidates:
        umask = mask_of(U)
        if dev._value_mask(umask) != 2:
            continue
        total = rival_sum(U)
        if total >= 1:
            continue
        # the least rival total wins, then the demand tie rule
        if best is None or better_demand(-total, umask, -best[0], best[1]):
            best = (total, umask, U)
    if best is None:
        return None
    return finish(best[2], "scan")


# -- max-cut reduction ---------------------------------------------------------


@dataclass
class WeightedGraph:
    vertices: int
    edges: list

    def __post_init__(self):
        seen = set()
        norm = []
        for u, v, w in self.edges:
            ends = checked_mask((u, v), self.vertices)
            if ends.bit_count() == 1:
                raise DomainError("self-loops are not allowed")
            (w,) = checked_money((w,), "edge weights")
            key = ((ends & -ends).bit_length() - 1, ends.bit_length() - 1)
            if key in seen:
                raise DomainError("duplicate edge")
            seen.add(key)
            norm.append((key[0], key[1], w))
        self.edges = norm

    def total_weight(self) -> Money:
        return sum((w for _, _, w in self.edges), Fraction(0))

    def cut_weight(self, side) -> Money:
        side = checked_mask(side, self.vertices)
        return sum(
            (w for u, v, w in self.edges if (side >> u ^ side >> v) & 1),
            Fraction(0),
        )

    def to_json(self):
        return {
            "vertices": self.vertices,
            "edges": [[u, v, format_money(w)] for u, v, w in self.edges],
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["vertices"], d["edges"])


def maxcut_valuation(graph: WeightedGraph) -> CoverageValuation:
    """Items are vertices; a bundle is worth the weight of edges it touches."""
    return CoverageValuation(graph.vertices, graph.edges)


def local_max_check(valuations, alloc):
    """True iff no single-item move between bidders raises welfare."""
    masks = allocation_masks(alloc, m=item_count(valuations), n=len(valuations))
    for i, smask in enumerate(masks):
        for j in iter_bits(smask):
            lost = valuations[i]._value_mask(smask) - valuations[i]._value_mask(smask ^ (1 << j))
            for ip, tmask in enumerate(masks):
                if ip == i:
                    continue
                v = valuations[ip]
                gained = v._value_mask(tmask | (1 << j)) - v._value_mask(tmask)
                if gained > lost:
                    return False, (i, ip, j)
    return True, None


def local_max_bids(valuations, alloc):
    """Procedure bids (owner-first marginal ordering) for a local maximum."""
    return compute_bids(valuations, alloc, owner_first(alloc, item_count(valuations)))


@dataclass
class GapWitness:
    graph: WeightedGraph
    alloc: tuple
    bids: tuple
    orders: tuple
    move: tuple
    seed: int | None


def star_gap_instance() -> GapWitness:
    """Deterministic two-edge star whose ordering bids overprotect: the
    profile is an equilibrium but moving the far leaf raises welfare."""
    graph = WeightedGraph(3, [(0, 1, Fraction(1)), (0, 2, Fraction(1))])
    vals = (maxcut_valuation(graph), maxcut_valuation(graph))
    alloc = (frozenset({2}), frozenset({0, 1}))
    orders = ((2, 0, 1), (1, 0, 2))
    bids = compute_bids(vals, alloc, orders)
    return GapWitness(graph, alloc, bids, orders, (1, 0, 1), None)


def _random_graph(rng: random.Random, nv: int) -> WeightedGraph:
    edges = []
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < 0.6:
                edges.append((u, v, Fraction(rng.randint(1, 4))))
    return WeightedGraph(nv, edges)


def equilibrium_not_local_max_search(seeds, max_vertices: int = 8):
    """Random graphs, allocations, and bid orderings; returns the first
    no-steal profile that is a brute-certified equilibrium while the cut
    still admits an improving flip, else None."""
    for seed in seeds:
        rng = random.Random(seed)
        nv = rng.randint(3, max_vertices)
        graph = _random_graph(rng, nv)
        if len(graph.edges) < 2:
            continue
        vals = (maxcut_valuation(graph), maxcut_valuation(graph))
        side = frozenset(v for v in range(nv) if rng.random() < 0.5)
        alloc = (side, frozenset(range(nv)) - side)
        orders = []
        for S in alloc:
            own = sorted(S)
            rng.shuffle(own)
            rest = sorted(set(range(nv)) - S)
            orders.append(own + rest)
        bids = compute_bids(vals, alloc, orders)
        if find_steal(vals, alloc, bids) is not None:
            continue
        is_lm, move = local_max_check(vals, alloc)
        if is_lm:
            continue
        ok, _ = is_pure_nash_no_overbid(vals, bids, alloc)
        if ok:
            return GapWitness(graph, alloc, bids, tuple(tuple(o) for o in orders), move, seed)
    return None
