"""Shared brute-force oracles for the test suite.

These deliberately use the dumbest correct method available (full
enumeration, direct definitions) so they stay independent from the
library's optimized code paths.
"""

import hashlib
import itertools
import math
import random
from collections import deque
from fractions import Fraction

from sspeq.valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    CoverageValuation,
    TableValuation,
    XOSExplicitValuation,
    bundle_of,
    mask_of,
)


def brute_coverage_value(edges, S):
    """The weight of the edges with an endpoint in S, by a literal scan."""
    total = Fraction(0)
    for u, v, w in edges:
        if u in S or v in S:
            total += Fraction(w)
    return total


def brute_coverage_table(m, edges):
    """Coverage table built by literal edge scanning per bundle."""
    return [brute_coverage_value(edges, {j for j in range(m) if mask >> j & 1})
            for mask in range(1 << m)]


def random_coverage_edges(rng, m, hi=6, den=6):
    """Random multigraph on m vertices; weights k/d with d drawn from 1..den."""
    if m < 2:
        return []
    return [
        (*rng.sample(range(m), 2), Fraction(rng.randint(0, hi), rng.randint(1, den)))
        for _ in range(rng.randint(0, 2 * m))
    ]


def random_coverage(rng, m, hi=6, den=6):
    return CoverageValuation(m, random_coverage_edges(rng, m, hi, den))


def random_additive(rng, m, lo=0, hi=8, den=4):
    vals = [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(m)]
    return AdditiveValuation(m, vals)


def random_budget_additive(rng, m, lo=0, hi=8, den=4):
    vals = [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(m)]
    total = sum(vals, Fraction(0))
    budget = Fraction(rng.randint(1, max(1, total.numerator)), 1)
    return BudgetAdditiveValuation(m, budget, vals)


def random_submodular_table(rng, m, edges_hi=6):
    """Coverage plus a capped cardinality term, built by brute enumeration."""
    edges = []
    for u in range(m):
        for v in range(u + 1, m):
            if rng.random() < 0.6:
                edges.append((u, v, Fraction(rng.randint(1, edges_hi))))
    per = Fraction(rng.randint(0, 3))
    cap = rng.randint(1, m)
    table = brute_coverage_table(m, edges)
    table = [
        val + per * min(bin(mask).count("1"), cap)
        for mask, val in enumerate(table)
    ]
    return TableValuation(m, table)


def random_cover_table(rng, m):
    """A monotone submodular table built on ints, fast at m = 12-13: half the
    weight of a hidden ground set that the bundle covers plus a concave
    function of its size."""
    ground = 2 * m
    weight = [rng.randint(1, 6) for _ in range(ground)]
    covers = [sum(1 << e for e in rng.sample(range(ground), rng.randint(1, ground // 3))) for _ in range(m)]
    concave = [0]
    for step in sorted((rng.randint(0, 3) for _ in range(m)), reverse=True):
        concave.append(concave[-1] + step)
    covered = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        covered[mask] = covered[mask ^ low] | covers[low.bit_length() - 1]
    return TableValuation(m, [
        Fraction(sum(w for e, w in enumerate(weight) if c >> e & 1) + concave[mask.bit_count()], 2)
        for mask, c in enumerate(covered)
    ])


def brute_mask_sums(weights, base=0):
    """base + the sum of weights[b] over the set bits b of t, for every t,
    by a literal scan."""
    return [base + sum(w for b, w in enumerate(weights) if t >> b & 1) for t in range(1 << len(weights))]


def random_table(rng, m, monotone=True):
    """A nonnegative table: each bundle adds a random step to its best
    one-item-smaller subset. Steps may be negative (clamped at 0) unless
    monotone; most monotone ones are not XOS."""
    values = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        low = max(values[mask ^ (1 << j)] for j in range(m) if mask >> j & 1)
        step = Fraction(rng.randint(0 if monotone else -3, 4), rng.randint(1, 3))
        values[mask] = max(Fraction(0), low + step)
    return values


def brute_additive_value(item_values, S):
    """Literal sum of the item values over the bundle."""
    total = Fraction(0)
    for j in S:
        total += Fraction(item_values[j])
    return total


def brute_budget_additive_value(budget, item_values, S):
    """The additive sum over the bundle, capped at the budget."""
    return min(Fraction(budget), brute_additive_value(item_values, S))


def brute_xos_value(clauses, S):
    """The best additive clause sum over the bundle."""
    return max(brute_additive_value(c, S) for c in clauses)


def brute_gray_value(v, S):
    """A GrayValuation's value by its definition: |S| up to m', m' + 1 above
    m' + 1, and on the middle m' + 1/2 plus eps times the path position of
    the bundle's codeword (S for player 1, the rest for player 0), position
    0 off the path."""
    S, mp = set(S), v.m // 2
    if len(S) != mp + 1:
        return Fraction(min(len(S), mp + 1))
    ones = S if v.player == 1 else set(range(v.m)) - S
    codeword = sum(1 << j for j in ones)
    k = v.path_masks.index(codeword) if codeword in v.path_masks else 0
    return mp + Fraction(1, 2) + k * Fraction(v.eps)


def brute_gray_clause(v, S):
    """A GrayValuation's clause on S as one weight per item: 1 up to size
    m', (m' + 1) / |S| above the middle, and on the middle 1 but for the
    designated item's 1/2 + k * eps."""
    S, mp = set(S), v.m // 2
    if len(S) > mp + 1:
        return [Fraction(mp + 1, len(S)) if j in S else 0 for j in range(v.m)]
    row = [Fraction(1) if j in S else 0 for j in range(v.m)]
    if len(S) == mp + 1:
        row[v.designated_item(mask_of(S))] = brute_gray_value(v, S) - mp
    return row


def brute_sensitive_value(sv, mask):
    """A SensitiveValuation's value as its best clause family, recomputed
    from counts and the stored `k_map`, with no closed form: m'-g, min(|S|,
    m'), the B floor min(|S|, m'+h)(m'+1)/(m'+h), and from m'+1 items on
    m'+1/4 plus the largest k of a size-(m'+1) subset, default_k for an
    unstored one."""
    s = mask.bit_count()
    if s == 0:
        return Fraction(0)
    mp, g, h = sv.mp, sv.g, sv.h
    best = max(Fraction(mp - g), Fraction(min(s, mp)),
               Fraction(min(s, mp + h) * (mp + 1), mp + h))
    if s >= mp + 1:
        ks = [k for b, k in sv.k_map.items() if b & mask == b]
        if len(ks) < math.comb(s, mp + 1):
            ks.append(sv.default_k)
        best = max(best, mp + Fraction(1, 4) + max(ks))
    return best


def brute_set_pair_value(system, flags, player, S):
    """A SetPairValuation's value by its definition: 0 on the empty bundle;
    2 on at least 3m/4 + 1 items or on the player's side of a flagged pair;
    1 otherwise."""
    S = set(S)
    if not S:
        return Fraction(0)
    flagged = [pair[player] for pair, f in zip(system.pairs, flags) if f == 1]
    if len(S) >= 3 * system.m // 4 + 1 or any(set(side) <= S for side in flagged):
        return Fraction(2)
    return Fraction(1)


def random_weights(rng, m, hi=9, den=6):
    """m nonnegative rationals k/d with d drawn from 1..den."""
    return [Fraction(rng.randint(0, hi), rng.randint(1, den)) for _ in range(m)]


def brute_better_demand(profit_a, S_a, profit_b, S_b):
    """The demand tie rule on frozensets: larger profit, then smaller
    cardinality, then the lexicographically smaller sorted tuple."""
    if profit_a != profit_b:
        return profit_a > profit_b
    if len(S_a) != len(S_b):
        return len(S_a) < len(S_b)
    return tuple(sorted(S_a)) < tuple(sorted(S_b))


def brute_cheapest_subsets(costs, k):
    """Every k-item subset as (cost, mask), sorted by cost and then by its
    index vector into the items sorted by (cost, item)."""
    order = sorted(range(len(costs)), key=lambda j: (costs[j], j))
    ranked = sorted(
        (sum(costs[order[i]] for i in idxs), idxs)
        for idxs in itertools.combinations(range(len(costs)), k)
    )
    return [(cost, mask_of(order[i] for i in idxs)) for cost, idxs in ranked]


def brute_demand(v, prices):
    """Exhaustive demand with the empty bundle as baseline."""
    prices = [Fraction(p) for p in prices]
    best_profit, best = Fraction(0), frozenset()
    for mask in range(1 << v.m):
        S = bundle_of(mask)
        profit = v.value(S) - sum((prices[j] for j in S), Fraction(0))
        if brute_better_demand(profit, S, best_profit, best):
            best_profit, best = profit, S
    return best, best_profit


def brute_gray_demand(v, prices):
    """Exhaustive demand of a GrayValuation under its own tie rule: the
    largest profit; among the bundles reaching it, a middle-level bundle
    (size m'+1) wins if there is one, the one with the largest path
    position k first; otherwise the usual demand tie rule decides."""
    prices = [Fraction(p) for p in prices]
    scored = []
    for mask in range(1 << v.m):
        S = bundle_of(mask)
        scored.append((v.value(S) - sum((prices[j] for j in S), Fraction(0)), S))
    top = max(profit for profit, _ in scored)
    tied = [S for profit, S in scored if profit == top]
    middle = [S for S in tied if len(S) == v.mp + 1]
    if middle:
        k_max = max(v.k_of(mask_of(S)) for S in middle)
        tied = [S for S in middle if v.k_of(mask_of(S)) == k_max]
    best = tied[0]
    for S in tied[1:]:
        if brute_better_demand(top, S, top, best):
            best = S
    return best


def canon(x) -> str:
    """Canonical text of a result built from ints, strings, None, Fractions,
    sets, sequences and dicts: rationals as num/den, sets and dict keys
    sorted."""
    if x is None or isinstance(x, (int, str)):
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(canon(e) for e in sorted(x)) + "}"
    if isinstance(x, (tuple, list)):
        return "[" + ",".join(canon(e) for e in x) + "]"
    if isinstance(x, dict):
        return "<" + ",".join(canon(k) + ":" + canon(x[k]) for k in sorted(x)) + ">"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def canon_digest(x) -> str:
    """sha256 of canon(x), for pinning a whole result in one line."""
    return hashlib.sha256(canon(x).encode()).hexdigest()


def brute_best_deviation(valuations, i, bids):
    """Direct definition: a target is winnable iff every nonempty subset
    of it beats the rival prices strictly; pay rival prices on the target."""
    n = len(bids)
    m = len(bids[0])
    v = valuations[i]
    prices = []
    for j in range(m):
        p = Fraction(0)
        for k in range(n):
            if k != i and Fraction(bids[k][j]) > p:
                p = Fraction(bids[k][j])
        prices.append(p)

    def winnable(T):
        for r in range(1, len(T) + 1):
            for S in itertools.combinations(sorted(T), r):
                if sum((prices[j] for j in S), Fraction(0)) >= v.value(S):
                    return False
        return True

    best_u, best_S, best_pay = Fraction(0), frozenset(), Fraction(0)
    for mask in range(1 << m):
        T = bundle_of(mask)
        if mask and not winnable(T):
            continue
        pay = sum((prices[j] for j in T), Fraction(0))
        u = v.value(T) - pay
        if brute_better_demand(u, T, best_u, best_S):
            best_u, best_S, best_pay = u, T, pay
    return best_u, best_S, best_pay


def reference_resolve(bids):
    """resolve as a Fraction loop, item by item: the highest bid wins, ties
    to the lowest bidder index, and the winner pays the highest rival bid,
    0 when there is none."""
    bids = [[Fraction(x) for x in row] for row in bids]
    n, m = len(bids), len(bids[0])
    owned = [[] for _ in range(n)]
    payments = [Fraction(0)] * n
    for j in range(m):
        winner = 0
        for i in range(1, n):
            if bids[i][j] > bids[winner][j]:
                winner = i
        owned[winner].append(j)
        rival = Fraction(0)
        for i in range(n):
            if i != winner and bids[i][j] > rival:
                rival = bids[i][j]
        payments[winner] += rival
    return tuple(frozenset(s) for s in owned), tuple(payments)


def brute_optimal_welfare(valuations):
    """Optimum by enumerating all n^m item assignments."""
    n = len(valuations)
    m = valuations[0].m
    best, best_alloc = None, None
    for assign in itertools.product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for j, i in enumerate(assign):
            bundles[i].add(j)
        total = sum(
            (v.value(S) for v, S in zip(valuations, bundles)), Fraction(0)
        )
        if best is None or total > best:
            best = total
            best_alloc = tuple(frozenset(S) for S in bundles)
    return best, best_alloc


def reference_partition_dp(valuations):
    """The bidder-by-bidder submask DP in Fractions, every bidder walking all
    3^m (mask, submask) pairs: bidder i takes, from the items left to
    bidders 0..i, the first submask in descending order of the highest
    welfare. Pins the allocation, not only OPT's value."""
    m = valuations[0].m
    size = 1 << m
    prev = [Fraction(0)] * size
    choices = []
    for v in valuations:
        vals = [v._value_mask(t) for t in range(size)]
        cur, take = [None] * size, [0] * size
        for mask in range(size):
            t = mask
            while True:
                cand = prev[mask ^ t] + vals[t]
                if cur[mask] is None or cand > cur[mask]:
                    cur[mask], take[mask] = cand, t
                if t == 0:
                    break
                t = (t - 1) & mask
        choices.append(take)
        prev = cur
    mask, picks = size - 1, []
    for take in reversed(choices):
        picks.append(take[mask])
        mask ^= take[mask]
    return prev[size - 1], tuple(bundle_of(t) for t in reversed(picks))


def brute_bids(valuations, alloc, orders):
    """Marginal bids through the query API: v(j | owned items before j in
    the bidder's order), two counted value queries each; zero off the
    bundle."""
    m = valuations[0].m
    bids = []
    for v, S, order in zip(valuations, alloc, orders):
        row = [Fraction(0)] * m
        seen = set()
        for j in order:
            if j in S:
                row[j] = v.marginal(j, seen)
                seen.add(j)
        bids.append(tuple(row))
    return tuple(bids)


def brute_find_steal(valuations, alloc, bids, top=None):
    """The first (thief, victim, item), in lexicographic order, whose
    marginal beats the victim's bid; with `top`, only the thieves in
    top[item] are tried."""
    for thief, v in enumerate(valuations):
        for victim, S in enumerate(alloc):
            if victim == thief:
                continue
            for j in sorted(S):
                if top is not None and thief not in top[j]:
                    continue
                if v.marginal(j, alloc[thief]) > bids[victim][j]:
                    return (thief, victim, j)
    return None


def brute_loose_tight(v, j, price):
    """An owned item's tag: loose below the owner's singleton value
    (strongly loose at price zero), else tight."""
    if price < v._value_mask(1 << j):
        return "strongly_loose" if price == 0 else "loose"
    return "tight"


def brute_stealing(valuations, init_alloc, policy="stolen-last", step_cap=100_000, tagged=False):
    """Single-item stealing in Fractions: bids recomputed through the query
    API after every steal, standing prices as column maxima, welfare from
    uncounted values. With `tagged`, each event carries the victim's
    loose/tight tag of the stolen item at the pre-steal prices. Returns
    (alloc, bids, orders, initial prices, events, capped)."""
    m = valuations[0].m
    alloc = [frozenset(S) for S in init_alloc]
    orders = [sorted(S) + sorted(set(range(m)) - S) for S in alloc]
    bids = brute_bids(valuations, alloc, orders)
    prices = tuple(max(col) for col in zip(*bids))
    initial, events = prices, []

    def welfare():
        return sum((v._value_mask(mask_of(S)) for v, S in zip(valuations, alloc)), Fraction(0))

    while True:
        steal = brute_find_steal(valuations, alloc, bids)
        if steal is None or len(events) >= step_cap:
            return tuple(alloc), bids, orders, initial, events, steal is not None
        thief, victim, item = steal
        tag = brute_loose_tight(valuations[victim], item, prices[item]) if tagged else None
        before = welfare()
        if policy == "stolen-last":
            orders[thief].remove(item)
            orders[thief].insert(len(alloc[thief]), item)
            orders[victim].remove(item)
            orders[victim].append(item)
        alloc[thief] |= {item}
        alloc[victim] -= {item}
        bids = brute_bids(valuations, alloc, orders)
        prices = tuple(max(col) for col in zip(*bids))
        events.append((thief, victim, item, before, welfare(), prices, tag))


def seeded(seed):
    return random.Random(seed)


class RecordingClauseOracle:
    """Clause oracle over a GrayValuation that answers with the valuation's
    own clause and records, in first-touch order, the path position k of
    each middle bundle (size m'+1) it is asked about. The dynamic reads the
    int entry `_int_clause` (it counts the query itself); the Fraction
    reference reads the counted `xos_clause`."""

    def __init__(self, valuation):
        self.valuation = valuation
        self.k_map = {}
        self.touch_order = []

    def _record(self, bmask):
        if bmask.bit_count() == self.valuation.mp + 1 and bmask not in self.k_map:
            self.k_map[bmask] = self.valuation.k_of(bmask)
            self.touch_order.append(bmask)

    def _int_clause(self, mask):
        self._record(mask)
        return self.valuation._int_clause(mask)

    def xos_clause(self, S):
        self._record(mask_of(S))
        return self.valuation.xos_clause(S)


def recording_oracles(v0, v1):
    return RecordingClauseOracle(v0), RecordingClauseOracle(v1)


def reference_best_reply_dynamic(v0, v1, init_alloc, oracles=None, step_cap=10_000):
    """The best-reply dynamic in Fractions, as it ran before its loop moved
    to ints: the responder's demand through the public `demand` on the
    rival's Fraction bids, the gain from `_value_mask`, and both clause rows
    rebuilt as Fractions and rescaled to their least common denominator
    after every change. Returns the library's DynamicRun."""
    from sspeq.auction import check_allocation
    from sspeq.money import scale_to_ints
    from sspeq.valuations import DomainError
    from sspeq.xos_dynamics import DynamicRun, DynamicStep, DynamicTrace

    def clause_row(oracle, S):
        row = [Fraction(0)] * m
        for j, w in oracle.xos_clause(S).items():
            row[j] = w
        return tuple(row)

    def scaled(bids):
        ints, D = scale_to_ints(bids[0] + bids[1])
        if min(ints) < 0:
            raise DomainError("bids must be nonnegative")
        return (ints[:m], ints[m:]), D

    def won_by_1(rows):
        return sum(1 << j for j in range(m) if rows[1][j] > rows[0][j])

    valuations = (v0, v1)
    m = v0.m
    oracles = valuations if oracles is None else oracles
    init_alloc = check_allocation(init_alloc, 2, m)
    full = v0.full_mask
    bids = [clause_row(oracles[0], init_alloc[0]), clause_row(oracles[1], init_alloc[1])]
    rows, D = scaled(bids)
    won = won_by_1(rows)
    alloc = (bundle_of(full ^ won), bundle_of(won))
    trace = DynamicTrace(alloc, Fraction(sum(map(max, *rows)), D))
    responder, quiet = 1, 0
    while quiet < 2:
        if trace.responses >= step_cap:
            trace.truncated = True
            break
        rival = rows[1 - responder]
        v = valuations[responder]
        held = won if responder == 1 else full ^ won
        demanded = v.demand(bids[1 - responder])
        dmask = mask_of(demanded)
        gain = v._value_mask(dmask) - v._value_mask(held)
        extra = sum(rival[j] for j in range(m) if dmask >> j & 1) - sum(
            rival[j] for j in range(m) if held >> j & 1
        )
        target = demanded if gain.numerator * D > extra * gain.denominator else alloc[responder]
        new_row = clause_row(oracles[responder], target)
        changed = new_row != bids[responder]
        bids[responder] = new_row
        if changed:
            rows, D = scaled(bids)
            new_won = won_by_1(rows)
            if new_won != won:
                won = new_won
                alloc = (bundle_of(full ^ won), bundle_of(won))
                trace.rows.append(DynamicStep(responder, alloc, Fraction(sum(map(max, *rows)), D)))
            quiet = 0
        else:
            quiet += 1
        trace.responses += 1
        responder = 1 - responder
    return DynamicRun(alloc, tuple(bids), trace)


def reference_component(adv, start):
    """OddGraphAdversary._component as it ran before its walk was inlined:
    each step finds the pick-th item of the vertex from the low end, then
    asks `_blocked`, and every 4th step asks `_clear`. Draws from and
    advances `adv.rng` exactly as the library must."""
    from sspeq.hardness import odd_graph_neighbors

    def random_step(cur):
        pick = adv.rng.randrange(adv.mp + 1)
        rest = cur
        for _ in range(pick):
            rest &= rest - 1
        b = rest & -rest
        return (adv.full_mask ^ cur) | b

    reached = {start}
    if adv.walk_ok:
        cur = start
        steps = 0
        limit = 8 * (adv.mp + 2)
        while steps < limit:
            for _ in range(4):
                if steps >= limit:
                    break
                steps += 1
                cand = random_step(cur)
                if not adv._blocked(cand):
                    cur = cand
                    reached.add(cand)
            if adv._clear(cur):
                return reached, len(reached), False
    visited = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in odd_graph_neighbors(adv.mp, v):
            if w in visited or adv._blocked(w):
                continue
            visited.add(w)
            if len(visited) > adv.c_small:
                reached |= visited
                return reached, len(reached), False
            queue.append(w)
    reached |= visited
    return visited, len(reached), True


def random_topsteal_instance(rng):
    """(valuations, init_alloc, t) for top_steal: n = 2..4 bidders drawn
    from table, coverage, explicit XOS, additive and budget-additive
    families with denominators above 1, m = 1..5 items dealt at random, and
    t from the instance's restriction (at least 2) up to n."""
    n, m = rng.randint(2, 4), rng.randint(1, 5)
    makers = (
        lambda: TableValuation(m, random_table(rng, m)),
        lambda: random_submodular_table(rng, m),
        lambda: random_coverage(rng, m),
        lambda: XOSExplicitValuation(m, [random_weights(rng, m) for _ in range(rng.randint(1, 3))]),
        lambda: random_additive(rng, m, den=6),
        lambda: random_budget_additive(rng, m, den=6),
    )
    vs = [rng.choice(makers)() for _ in range(n)]
    alloc = [set() for _ in range(n)]
    for j in range(m):
        alloc[rng.randrange(n)].add(j)
    worst = max(sum(v._value_mask(1 << j) > 0 for v in vs) for j in range(m))
    return vs, alloc, rng.randint(max(2, worst), n)


def topsteal_outcome(run_top_steal, vs, alloc, t):
    """What a top_steal run shows: its allocation, bids, steals, each trace
    node's (case, m_active, t, steal) in walk order and each bidder's
    ledger delta; or the error it raised."""
    before = [v.ledger.snapshot() for v in vs]
    try:
        run = run_top_steal(vs, alloc, t=t)
    except Exception as exc:  # the error itself is the outcome
        return ("error", type(exc).__name__, str(exc))
    deltas = [
        {k: after[k] - b[k] for k in after} for b, after in zip(before, (v.ledger.snapshot() for v in vs))
    ]
    nodes = [(node.case, node.m_active, node.t, node.steal) for node in run.trace.walk()]
    return run.alloc, run.bids, run.steals, nodes, deltas


def reference_top_steal(valuations, init_alloc, t=None):
    """top_steal as it ran before its singletons moved to rows: every level
    asks each bidder's int singletons afresh through its conditioned or
    erased valuation, one counted value query each, and builds per-item
    competitor lists. Returns the library's TopStealRun."""
    from sspeq.auction import check_allocation, item_count
    from sspeq.stealing import compute_bids, find_steal, int_oracles, owner_first, steal_search
    from sspeq.topsteal import (
        ErasedValuation,
        MarginalValuation,
        RecursionTrace,
        TopStealDiagnostic,
        TopStealRun,
        compose_top_item,
    )
    from sspeq.valuations import DomainError

    def single(v, f, j):
        v.ledger.value += 1
        return f(1 << j)

    def competitors(vals, oracles, items):
        out = {}
        for j in sorted(items):
            singles = [(i, single(v, f, j)) for i, (v, f) in enumerate(zip(vals, oracles))]
            comp = [(i, x) for i, x in singles if x > 0]
            top_val = max((x for _, x in comp), default=0)
            out[j] = {
                "competitors": [i for i, _ in comp],
                "top": [i for i, x in comp if x == top_val],
            }
        return out

    def to_competitors(alloc, info):
        alloc = [set(S) for S in alloc]
        for j in sorted(info):
            holder = next(i for i, S in enumerate(alloc) if j in S)
            comp = info[j]["competitors"]
            if comp and holder not in comp:
                alloc[holder].discard(j)
                alloc[info[j]["top"][0]].add(j)
        return tuple(frozenset(S) for S in alloc)

    def give(alloc, thief, j):
        return tuple((S | {j}) if i == thief else (S - {j}) for i, S in enumerate(alloc))

    def find_top_steal(vals, oracles, D, alloc, bids, info):
        ledgers = [v.ledger for v in vals]
        masks = [mask_of(S) for S in alloc]
        rows = [[D * b for b in row] for row in bids]
        any_steal = steal_search(oracles, ledgers, masks, rows)
        if any_steal is None:
            return None
        steal = steal_search(oracles, ledgers, masks, rows, {j: d["top"] for j, d in info.items()})
        if steal is None:
            raise TopStealDiagnostic(f"steal {any_steal} exists but no top-competitor steal does")
        return steal

    def rec(vals, alloc, active, t, steals):
        n, m = len(vals), vals[0].m
        oracles, D = int_oracles(vals)
        info = competitors(vals, oracles, active)
        if len(active) == 1:
            (j,) = active
            holder = next(i for i, S in enumerate(alloc) if j in S)
            trace = RecursionTrace("single_item", 1, t)
            if info[j]["top"] and holder not in info[j]["top"]:
                thief = info[j]["top"][0]
                steals.append((thief, holder, j))
                trace.steal = (thief, holder, j)
                alloc = give(alloc, thief, j)
                holder = thief
            bids = [[Fraction(0)] * m for _ in range(n)]
            bids[holder][j] = Fraction(single(vals[holder], oracles[holder], j), D)
            return alloc, tuple(tuple(r) for r in bids), trace
        pin = next(
            ((i, j) for i in range(n) for j in sorted(alloc[i] & active) if i in info[j]["top"]),
            None,
        )
        if pin is not None:
            i, j = pin
            value = Fraction(single(vals[i], oracles[i], j), D)
            sub_vals = list(vals)
            sub_vals[i] = MarginalValuation(vals[i], j)
            sub_alloc = tuple(S - {j} if k == i else S for k, S in enumerate(alloc))
            out_alloc, out_bids, child = rec(sub_vals, sub_alloc, active - {j}, t, steals)
            alloc2, bids2 = compose_top_item(out_alloc, out_bids, i, j, value)
            return alloc2, bids2, RecursionTrace("pin_top_item", len(active), t, children=[child])
        if t == 2:
            sub_alloc = tuple(S & active for S in alloc)
            bids = compute_bids(vals, sub_alloc, owner_first(sub_alloc, m))
            steal = find_top_steal(vals, oracles, D, sub_alloc, bids, info)
            if steal is None:
                return alloc, bids, RecursionTrace("stable_bids", len(active), t)
            thief, _, j = steal
            steals.append(steal)
            out_alloc, out_bids, child = rec(vals, give(alloc, thief, j), active, t, steals)
            trace = RecursionTrace("steal_then_recurse", len(active), t, steal=steal, children=[child])
            return out_alloc, out_bids, trace
        sub_vals = list(vals)
        for i in range(n):
            erased = frozenset(j for j in active if i in info[j]["top"])
            if erased:
                sub_vals[i] = ErasedValuation(vals[i], erased)
        sub_info = competitors(sub_vals, int_oracles(sub_vals)[0], active)
        if any(len(d["competitors"]) > t - 1 for d in sub_info.values()):
            raise DomainError(
                f"a pin lifted a non-submodular bidder's marginal singletons above the {t}-restriction"
            )
        out_alloc, out_bids, child = rec(sub_vals, alloc, active, t - 1, steals)
        restricted = tuple(S & active for S in out_alloc)
        if find_steal(vals, restricted, out_bids) is None:
            return out_alloc, out_bids, RecursionTrace("erased_stable", len(active), t, children=[child])
        steal = find_top_steal(vals, oracles, D, restricted, out_bids, info)
        thief, _, j = steal
        steals.append(steal)
        out_alloc2, out_bids2, child2 = rec(vals, give(out_alloc, thief, j), active, t, steals)
        trace = RecursionTrace("erase_then_steal", len(active), t, steal=steal, children=[child, child2])
        return out_alloc2, out_bids2, trace

    n, m = len(valuations), item_count(valuations)
    t = n if t is None else t
    if t < 2:
        raise DomainError("need t >= 2")
    alloc = check_allocation(init_alloc, n, m)
    if set().union(*alloc) != set(range(m)):
        raise DomainError("initial allocation must cover all items")
    oracles, _ = int_oracles(valuations)
    alloc = to_competitors(alloc, competitors(valuations, oracles, range(m)))
    info = competitors(valuations, oracles, range(m))
    worst = max((len(d["competitors"]) for d in info.values()), default=0)
    if worst > t:
        raise DomainError(f"instance is only {worst}-restricted, got t={t}")
    steals = []
    final_alloc, final_bids, trace = rec(list(valuations), alloc, frozenset(range(m)), t, steals)
    return TopStealRun(final_alloc, final_bids, trace, steals)
