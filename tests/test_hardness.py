import hashlib
import itertools
import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_better_demand,
    brute_cheapest_subsets,
    brute_sensitive_value,
    reference_component,
    seeded,
)
from sspeq import hardness
from sspeq.hardness import (
    ISO_EXHAUSTIVE_CAP,
    KMAP_CAP,
    SEARCHERS,
    AdversaryAnswer,
    LocalMaxCertificate,
    OddGraphAdversary,
    SearchResult,
    SensitiveValuation,
    _sparse_demand,
    adversary_audit,
    eq_char_check,
    is_j_local_max,
    isoperimetric_check,
    j_local_max_certificate,
    odd_graph_ball_size,
    odd_graph_distance,
    odd_graph_neighbors,
    odd_graph_partner,
    odd_graph_vertices,
    query_lower_bound,
    sparse_demand_oracle,
)
from sspeq.valuations import (
    CapabilityError,
    DomainError,
    bundle_of,
    mask_of,
    valuation_from_json,
)


# -- independent oracles ---------------------------------------------------------


def bfs_distances(mp, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in odd_graph_neighbors(mp, v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def analytic_value(sv, S):
    """Family max by enumerating every clause of every family directly."""
    S = frozenset(S)
    s = len(S)
    if s == 0:
        return Fraction(0)
    ground = range(sv.m)
    best = Fraction(sv.mp - sv.g)  # C clauses: one per item, constant weight
    best = max(best, Fraction(min(s, sv.mp)))  # A clauses: ones on mp items
    w = Fraction(sv.mp + 1, sv.mp + sv.h)  # B clauses: uniform on mp+h items
    best = max(best, min(s, sv.mp + sv.h) * w)
    for combo in itertools.combinations(ground, sv.mp + 1):  # M clauses
        bmask = mask_of(combo)
        k = sv.k_map.get(bmask, sv.default_k)
        d = sv.clause_items.get(bmask, min(combo))
        a = Fraction(len(S & set(combo)))
        if d in S:
            a -= Fraction(3, 4) - k
        best = max(best, a)
    return best


def brute_nonempty_demand(sv, prices):
    prices = [Fraction(p) for p in prices]
    best_profit, best = None, None
    for mask in range(1, 1 << sv.m):
        S = bundle_of(mask)
        profit = brute_sensitive_value(sv, mask) - sum((prices[j] for j in S), Fraction(0))
        if best_profit is None or brute_better_demand(profit, S, best_profit, best):
            best_profit, best = profit, S
    return best, best_profit


def random_sensitive(rng, m, g, h):
    sv0 = SensitiveValuation(m, g=g, h=h)
    verts = odd_graph_vertices(m // 2)
    k_map = {}
    for mask in rng.sample(verts, min(len(verts), rng.randint(0, 6))):
        num = rng.randint(1, 2 ** 11 - 1)
        k_map[mask] = max(sv0.default_k, Fraction(num, 2 ** 13))
    clause_items = {}
    for mask in k_map:
        if rng.random() < 0.5:
            clause_items[mask] = rng.choice(sorted(bundle_of(mask)))
    return SensitiveValuation(m, k_map=k_map, clause_items=clause_items, g=g, h=h)


# -- odd graph -------------------------------------------------------------------


def test_petersen_shape():
    verts = odd_graph_vertices(2)
    assert len(verts) == 10
    for v in verts:
        nbs = odd_graph_neighbors(2, v)
        assert len(nbs) == 3
        for w in nbs:
            assert (v & w).bit_count() == 1


def test_partner_swaps_to_complement_plus_item():
    mask = mask_of({0, 1, 2})
    assert odd_graph_partner(2, mask, 0) == mask_of({0, 3, 4})
    with pytest.raises(DomainError):
        odd_graph_partner(2, mask, 3)


@pytest.mark.parametrize("mp", [2, 3])
def test_distance_formula_matches_bfs(mp):
    verts = odd_graph_vertices(mp)
    start = verts[0]
    dist = bfs_distances(mp, start)
    for v in verts:
        assert odd_graph_distance(mp, start, v) == dist[v]


@pytest.mark.parametrize("mp", [2, 3])
def test_ball_size_matches_bfs(mp):
    start = mask_of(range(mp + 1))
    dist = bfs_distances(mp, start)
    for r in range(0, 2 * mp + 2):
        assert odd_graph_ball_size(mp, r) == sum(1 for d in dist.values() if d <= r)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_neighbors_come_in_bundle_key_order(data):
    mp = data.draw(st.integers(1, 21))
    items = data.draw(st.permutations(range(2 * mp + 1)))[: mp + 1]
    nbs = odd_graph_neighbors(mp, mask_of(items))
    assert nbs == sorted(nbs, key=lambda v: tuple(sorted(bundle_of(v))))


def test_ball_size_frozen_large():
    assert odd_graph_ball_size(21, 4) == 53846


def test_query_lower_bound_values():
    assert query_lower_bound(5) == 1
    q = query_lower_bound(43)
    assert q == 1313
    assert (21 * (q - 1)) ** 4 < 2 ** 59 <= (21 * q) ** 4
    for m in range(5, 402, 2):
        mp, q = m // 2, query_lower_bound(m)
        assert (mp * (q - 1)) ** 4 < 2 ** (3 * mp - 4) <= (mp * q) ** 4, m
    with pytest.raises(DomainError):
        query_lower_bound(6)


# -- sensitive valuations ----------------------------------------------------------


def test_literal_family_frozen_values():
    sv = SensitiveValuation(43)
    tiny = Fraction(1, 2 ** 47)
    assert sv.default_k == tiny
    assert sv.value(range(1)) == 1
    assert sv.value(range(10)) == 10
    assert sv.value(range(21)) == 21
    assert sv.value(range(22)) == Fraction(85, 4) + tiny
    assert sv.value(range(30)) == Fraction(660, 31)
    assert sv.b_floor(30) == Fraction(660, 31)
    assert sv.value(range(31)) == 22
    assert sv.value(range(43)) == 22


def test_literal_family_needs_m_43():
    with pytest.raises(DomainError):
        SensitiveValuation(9)
    SensitiveValuation(9, g=1, h=2)


def test_sensitive_domain_guards():
    with pytest.raises(DomainError):
        SensitiveValuation(9, g=0, h=2)
    with pytest.raises(DomainError):
        SensitiveValuation(9, g=4, h=2)
    with pytest.raises(DomainError):
        SensitiveValuation(9, g=1, h=1)
    with pytest.raises(DomainError):
        SensitiveValuation(9, g=1, h=6)
    with pytest.raises(DomainError):
        SensitiveValuation(9, g=1, h=2, default_k=Fraction(1, 4))
    with pytest.raises(DomainError):
        SensitiveValuation(9, g=1, h=2, k_map={mask_of(range(4)): Fraction(1, 8)})


def test_stored_bump_cannot_undercut_default():
    key = mask_of(range(5))
    with pytest.raises(DomainError):
        SensitiveValuation(9, g=1, h=2, default_k=Fraction(1, 8), k_map={key: Fraction(1, 16)})
    sv = SensitiveValuation(9, g=1, h=2, default_k=Fraction(1, 16), k_map={key: Fraction(1, 8)})
    assert sv.k_map[key] == Fraction(1, 8)


@pytest.mark.parametrize("g,h", [(1, 2), (2, 3), (3, 5)])
def test_closed_form_matches_clause_family_max(g, h):
    rng = seeded(1000 * g + h)
    sv = random_sensitive(rng, 9, g, h)
    for mask in range(1 << 9):
        S = bundle_of(mask)
        assert sv.value(S) == analytic_value(sv, S), sorted(S)


def test_sensitive_clauses_are_legal_xos_presentations():
    rng = seeded(77)
    sv = random_sensitive(rng, 9, 2, 4)
    for mask in range(1, 1 << 9):
        S = bundle_of(mask)
        clause, tag = sv.sensitive_clause(S)
        assert tag in "CAMB"
        assert all(w >= 0 for w in clause.values())
        attained = sum((w for j, w in clause.items() if j in S), Fraction(0))
        assert attained == sv.value(S), (sorted(S), tag)
        for tmask in range(1, 1 << 9):
            T = bundle_of(tmask)
            at = sum((w for j, w in clause.items() if j in T), Fraction(0))
            assert at <= sv.value(T), (sorted(S), sorted(T), tag)


def tied_sensitive(rng):
    """m = 9, g = 1, h = 3 with bumps drawn from a small pool of k values
    (default_k among them, non-dyadic denominators otherwise), so many window
    bundles hold tied stored bumps; inserted in shuffled order."""
    default_k = Fraction(1, rng.choice([13, 30, 2 ** 13]))
    pool = [default_k]
    for _ in range(rng.randint(1, 3)):
        den = rng.choice([3, 5, 7, 81])
        pool.append(max(default_k, Fraction(rng.randint(1, 4 * den - 1), 16 * den)))
    if rng.random() < 0.3:
        pool.append(max(default_k, Fraction(1, 28)))  # M and B tie at |S| = 6
    masks = rng.sample(odd_graph_vertices(4), rng.randint(0, 60))
    k_map = {mask: rng.choice(pool) for mask in masks}
    clause_items = {
        mask: rng.choice(sorted(bundle_of(mask))) for mask in masks if rng.random() < 0.4
    }
    return SensitiveValuation(
        9, k_map=k_map, default_k=default_k, clause_items=clause_items, g=1, h=3
    )


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_window_value_and_clause_follow_the_definition(seed):
    sv = tied_sensitive(seeded(seed))
    mp = sv.mp
    w = Fraction(mp + 1, mp + sv.h)
    for s in range(mp + 1, mp + sv.h):
        for S in itertools.combinations(range(9), s):
            # definition: max over every size-(m'+1) subset, default_k if unstored
            subsets = [mask_of(c) for c in itertools.combinations(S, mp + 1)]
            m_term = mp + Fraction(1, 4) + max(sv.k_map.get(c, sv.default_k) for c in subsets)
            b_term = s * w
            assert sv.value(S) == max(m_term, b_term), S
            clause, tag = sv.sensitive_clause(S)
            if m_term < b_term:
                outside = [j for j in range(9) if j not in S][: mp + sv.h - s]
                assert (clause, tag) == ({j: w for j in sorted(S + tuple(outside))}, "B"), S
                continue
            # core: the largest stored k, ties to the lexicographically first
            core, k = mask_of(S[: mp + 1]), sv.default_k
            stored = [c for c in subsets if c in sv.k_map]
            if stored:
                core = stored[0]
                for c in stored:
                    if sv.k_map[c] > sv.k_map[core]:
                        core = c
                k = sv.k_map[core]
            want = {j: Fraction(1) for j in sorted(bundle_of(core))}
            want[sv.clause_items.get(core, min(bundle_of(core)))] = Fraction(1, 4) + k
            assert (clause, tag) == (want, "M"), S
            assert list(clause) == sorted(clause)


def test_clause_tags_follow_sizes():
    sv = SensitiveValuation(9, g=2, h=4)
    assert sv.sensitive_clause(range(1))[1] == "C"
    assert sv.sensitive_clause(range(2))[1] == "C"
    assert sv.sensitive_clause(range(3))[1] == "A"
    assert sv.sensitive_clause(range(4))[1] == "A"
    assert sv.sensitive_clause(range(5))[1] == "M"
    assert sv.sensitive_clause(range(8))[1] == "B"
    assert sv.sensitive_clause(range(9))[1] == "B"


def test_local_max_certificates():
    key = mask_of({0, 1, 2, 3, 4})
    high = Fraction(1, 8)
    sv = SensitiveValuation(9, g=1, h=2, k_map={key: high})
    cert = j_local_max_certificate(sv, bundle_of(key), 0)
    partner = odd_graph_partner(4, key, 0)
    assert cert.value == Fraction(4) + Fraction(1, 4) + high
    assert cert.partner_value == brute_sensitive_value(sv, partner)
    assert is_j_local_max(sv, bundle_of(key), 0)
    with pytest.raises(DomainError):
        j_local_max_certificate(sv, {0, 1}, 0)
    with pytest.raises(DomainError):
        j_local_max_certificate(sv, bundle_of(key), 7)


@pytest.mark.parametrize("check", [j_local_max_certificate, is_j_local_max])
def test_local_max_rejects_items_out_of_range(check):
    sv = SensitiveValuation(9, g=1, h=2)
    with pytest.raises(DomainError, match="not within 0..8"):
        check(sv, {0, 1, 2, 3, 99}, 0)
    with pytest.raises(DomainError, match="not within 0..8"):
        check(sv, {0, 1, 2, 3, -1}, 0)


def test_eq_char_check():
    key = mask_of({0, 1, 2, 3, 4})
    sv = SensitiveValuation(9, g=1, h=2, k_map={key: Fraction(1, 8)})
    big = bundle_of(key)
    small = frozenset(range(9)) - big
    assert eq_char_check(sv, (small, big))
    # tilt the partner of the designated item above the bundle
    partner = odd_graph_partner(4, key, min(big))
    sv2 = SensitiveValuation(
        9, g=1, h=2, k_map={key: Fraction(1, 16), partner: Fraction(1, 8)}
    )
    assert not eq_char_check(sv2, (small, big))
    assert not eq_char_check(sv, (frozenset(range(4)), frozenset(range(4, 9))))
    with pytest.raises(DomainError):
        eq_char_check(sv, (big, big))


# -- sparse demand ------------------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sparse_demand_matches_exhaustive(seed):
    rng = seeded(seed)
    g, h = rng.choice([(1, 2), (2, 3), (1, 4)])
    sv = random_sensitive(rng, 9, g, h)
    if rng.random() < 0.2:
        prices = [Fraction(rng.randint(20, 40)) for _ in range(9)]
    else:
        prices = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(9)]
    D = sparse_demand_oracle(sv, prices)
    assert D
    got = sv.value(D) - sum((prices[j] for j in D), Fraction(0))
    _, want = brute_nonempty_demand(sv, prices)
    assert got == want


def nondyadic_sensitive(rng, m, g, h, prices):
    """Bumps over denominators 3, 5, 7, 81 and 2^13, stored in a shuffled
    (non-monotone) k order, with some k values shared. Half the time every
    size-(m'+1) subset of the cheapest m'+1 or m'+2 items is stored too, so
    a window prefix can have no unstored subset. A drawn bump below the
    default 1/2^(m+4), which `add_bump` rejects, is raised to it."""
    mp = m // 2
    masks = set(rng.sample(odd_graph_vertices(mp), rng.randint(0, 8)))
    if rng.random() < 0.5:
        order = sorted(range(m), key=lambda j: (prices[j], j))
        s = rng.choice([mp + 1, mp + 2])
        masks |= {mask_of(c) for c in itertools.combinations(order[:s], mp + 1)}
    masks = sorted(masks)
    rng.shuffle(masks)
    k_map, clause_items = {}, {}
    for mask in masks:
        if k_map and rng.random() < 0.2:
            k_map[mask] = rng.choice(list(k_map.values()))
        else:
            den = rng.choice([3, 5, 7, 81, 2 ** 13])
            k_map[mask] = max(Fraction(rng.randint(1, 4 * den - 1), 16 * den), Fraction(1, 2 ** (m + 4)))
        if rng.random() < 0.5:
            clause_items[mask] = rng.choice(sorted(bundle_of(mask)))
    return SensitiveValuation(m, k_map=k_map, clause_items=clause_items, g=g, h=h)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_sparse_demand_returns_the_exhaustive_bundle(seed):
    rng = seeded(seed)
    g, h = rng.choice([(1, 2), (2, 3), (1, 4), (2, 5)])
    if rng.random() < 0.2:
        prices = [Fraction(rng.randint(20, 40), rng.randint(1, 5)) for _ in range(9)]
    else:
        prices = [Fraction(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(9)]
    sv = nondyadic_sensitive(rng, 9, g, h, prices)
    want, _ = brute_nonempty_demand(sv, prices)
    assert sparse_demand_oracle(sv, prices) == want


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sensitive_int_demand_entry_is_the_brute_bundle(seed):
    # int prices at a denominator that is often not the least one, rescaled
    # to the family's; a fifth of the draws price every item high
    rng = seeded(seed)
    g, h = rng.choice([(1, 2), (2, 3), (1, 4), (2, 5)])
    D = rng.choice([1, 2, 3, 6, 10, 36])
    hi = 40 if rng.random() < 0.2 else 6
    p = [rng.randint(0, hi * D) for _ in range(9)]
    prices = [Fraction(x, D) for x in p]
    sv = nondyadic_sensitive(rng, 9, g, h, prices)
    want, _ = brute_nonempty_demand(sv, prices)
    assert bundle_of(sv._demand(p, D)) == want
    assert sv.ledger.demand == 0


def test_sensitive_demand_denominator_carries_m_prime_plus_h():
    # Eight free items earn the B-clause floor 5 * 8/9, and the ninth item
    # costs a hair over 5/9, so eight items beat nine by less than 1/Q. At a
    # denominator without m'+h = 9 the floor would round down and lose.
    sv = SensitiveValuation(9, g=2, h=5)
    Q = 2 ** 14
    p = [0] * 8 + [-(-5 * Q // 9)]
    want, profit = brute_nonempty_demand(sv, [Fraction(x, Q) for x in p])
    assert (want, profit) == (frozenset(range(8)), Fraction(40, 9))
    assert bundle_of(sv._demand(p, Q)) == want


def test_sparse_demand_walk_does_not_stop_at_a_tied_bound():
    # Two bumps with one k and one cost: the larger mask is walked first, and
    # the smaller one's bound equals the best so far but wins the tie.
    low, high = mask_of({0, 1, 2, 3, 4}), mask_of({0, 1, 2, 3, 5})
    sv = SensitiveValuation(9, g=1, h=3, k_map={low: Fraction(1, 8), high: Fraction(1, 8)})
    prices = [Fraction(0)] * 4 + [Fraction(1, 8)] * 2 + [Fraction(1)] * 3
    want, profit = brute_nonempty_demand(sv, prices)
    assert (want, profit) == (bundle_of(low), Fraction(17, 4))
    assert sparse_demand_oracle(sv, prices) == want


def test_sparse_demand_is_nonempty_even_at_a_loss():
    sv = SensitiveValuation(9, g=1, h=2)
    D = sparse_demand_oracle(sv, [Fraction(50)] * 9)
    assert len(D) >= 1
    assert sv.demand([Fraction(50)] * 9) == D


def test_sparse_demand_rejects_bad_prices():
    sv = SensitiveValuation(9, g=1, h=2)
    with pytest.raises(DomainError):
        sparse_demand_oracle(sv, [Fraction(1)] * 8)
    with pytest.raises(DomainError):
        sparse_demand_oracle(sv, [Fraction(-1)] + [Fraction(1)] * 8)


# -- adversary ----------------------------------------------------------------------


def plant(rng, m, v, i):
    """A size-(m'+1) bundle sharing exactly i items with vertex v."""
    inside = rng.sample(list(bundle_of(v)), i)
    outside = rng.sample([j for j in range(m) if not (v >> j) & 1], m // 2 + 1 - i)
    return mask_of(inside + outside)


def loop_clear(mp, v, blocked):
    return all(3 <= (v & w).bit_count() <= mp - 2 for w in blocked)


def assert_index_lists_blocked_once(adv):
    blocked = set(adv.colored) | adv.q_set
    for _, table in adv._pairs:
        listed = [w for ws in table.values() for w in ws]
        assert len(listed) == len(blocked) and set(listed) == blocked


@pytest.mark.parametrize("m", [9, 11, 43])
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 22), max_size=4))
@settings(max_examples=25, deadline=None)
def test_block_index_clear_matches_the_loop(m, seed, sizes):
    rng = seeded(seed)
    mp = m // 2
    v = mask_of(rng.sample(range(m), mp + 1))
    # one obstacle alone at every intersection size: the near lookup finds
    # i >= m'-1 and the complement lookup i <= 2
    for i in range(1, mp + 2):
        adv = OddGraphAdversary(m, g=1, h=2)
        adv._index(plant(rng, m, v, i))
        assert adv._clear(v) == (3 <= i <= mp - 2), i
    # a blocked set grown by real answers, plus planted obstacles
    adv = OddGraphAdversary(m, g=1, h=2, seed=seed)
    SEARCHERS["hill"](adv, 8)
    assert_index_lists_blocked_once(adv)
    planted = [plant(rng, m, v, min(i, mp + 1)) for i in sizes]
    for w in planted:
        adv._index(w)
    blocked = set(adv.colored) | adv.q_set | set(planted)
    assert adv._clear(v) == loop_clear(mp, v, blocked)
    for _ in range(20):
        u = mask_of(rng.sample(range(m), mp + 1))
        assert adv._clear(u) == loop_clear(mp, u, blocked)


# the pair families of the seven-group index: _clear looks v up under every
# near pair and its complement under every complement pair
NEAR_PAIRS = [*itertools.combinations((0, 1, 2), 2), *itertools.combinations((3, 4, 5, 6), 2)]
COMP_PAIRS = [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)]


def pair_key(m, pair):
    return mask_of(j for j in range(m) if j % 7 in pair)


def lookups_finding(m, v, w):
    """The lookups of the pair index whose key w shares with v or with the
    complement of v."""
    comp = ((1 << m) - 1) ^ v
    return [("near", p) for p in NEAR_PAIRS if not (w ^ v) & pair_key(m, p)] + [
        ("comp", p) for p in COMP_PAIRS if not (w ^ comp) & pair_key(m, p)
    ]


@pytest.mark.parametrize("m", [15, 43])
def test_clear_finds_each_planted_mask_through_its_one_lookup(m):
    # v holds every even item, so each group holds items of v and of its
    # complement. A near plant drops two items of v and adds two of the
    # complement (4 differences, i = m'-1), leaving its pair and one group
    # of the other clique intact; a complement plant drops one item of the
    # complement and adds two of v (3 differences, i = 2), leaving its pair
    # and the first group of each other clique of {0,1,2}, {3,4}, {5,6}
    mp = m // 2
    v = mask_of(range(0, m, 2))
    comp = ((1 << m) - 1) ^ v

    def item(side, g):
        return next(j for j in range(g, m, 7) if side >> j & 1)

    plants = []
    for a, b in NEAR_PAIRS:
        intact = (a, b, 3 if a < 3 else 0)
        bad = [g for g in range(7) if g not in intact]
        w = v ^ mask_of([item(v, g) for g in bad[:2]] + [item(comp, g) for g in bad[2:]])
        plants.append((("near", (a, b)), v, w, mp - 1))
    for a, b in COMP_PAIRS:
        intact = (a, b, *(c[0] for c in ((0, 1, 2), (3, 4), (5, 6)) if a not in c))
        bad = [g for g in range(7) if g not in intact]
        w = comp ^ mask_of([item(comp, bad[0])] + [item(v, g) for g in bad[1:]])
        plants.append((("comp", (a, b)), comp, w, 2))
    for lookup, side, w, i in plants:
        assert w.bit_count() == mp + 1 and (v & w).bit_count() == i
        assert lookups_finding(m, v, w) == [lookup]
        adv = OddGraphAdversary(m, g=1, h=2)
        adv._index(w)
        assert not adv._clear(v), lookup
        # with w taken out of the one entry its lookup reads, v is clear
        key = pair_key(m, lookup[1])
        del dict(adv._pairs)[key][side & key]
        assert adv._clear(v), lookup


def test_pair_index_keeps_a_pair_intact_for_any_bad_groups():
    # at m = 7 each group is one item, so a key is its pair of groups; any
    # 4 groups holding differences leave a near pair intact, any 3 leave a
    # complement pair intact, and the complement tables are near tables
    adv = OddGraphAdversary(7, g=1, h=2)
    near = [key for key, _ in adv._pairs]
    far = [key for key, _ in adv._comp_pairs]
    assert sorted(near) == sorted(pair_key(7, p) for p in NEAR_PAIRS)
    assert sorted(far) == sorted(pair_key(7, p) for p in COMP_PAIRS)
    assert all(any(t is table for _, t in adv._pairs) for _, table in adv._comp_pairs)
    for bad in itertools.combinations(range(7), 4):
        assert any(not key & mask_of(bad) for key in near), bad
    for bad in itertools.combinations(range(7), 3):
        assert any(not key & mask_of(bad) for key in far), bad


@pytest.mark.parametrize("m", [9, 11, 43])
@given(
    seed=st.integers(0, 2**32 - 1),
    searcher=st.sampled_from(["hill", "random"]),
    prefix=st.integers(1, 12),
)
@settings(max_examples=20, deadline=None)
def test_walk_matches_the_reference(m, seed, searcher, prefix):
    adv = OddGraphAdversary(m, g=1, h=2, seed=seed)
    SEARCHERS[searcher](adv, prefix)
    rng = seeded(seed)
    last = mask_of(adv.transcript[-1].vertex)
    starts = odd_graph_neighbors(adv.mp, last)
    starts += [mask_of(rng.sample(range(m), adv.mp + 1)) for _ in range(4)]
    for start in starts:
        before = adv.rng.getstate()
        want = reference_component(adv, start)
        after = adv.rng.getstate()
        adv.rng.setstate(before)
        assert adv._component(start) == want, start
        assert adv.rng.getstate() == after


# Small-family runs (g = 1, h = 2, adversary seed m) that color cut-off
# components: (answers, colored, sha256 over the transcript lines, adv.order
# and the per-answer materialized counts), recorded from the linear-scan _clear,
# and the run's (queries, steps, conceded, certified), recorded from the
# searchers' own loops.
COLORING_RUNS = {
    ("bestreply", 5, 10): (15, 10, "7d321ddf36fa8570400be74fafe06b92a3b4f74b27d12140e03401cb755d03da", (8, 8, True, False)),
    ("hill", 5, 10): (8, 10, "9ff6607b3fb5afe0e797bcf182f1da9aaf4f59e32aae358d8346c065d9aae66e", (8, 8, True, False)),
    ("random", 5, 10): (8, 10, "7577b510b8dec6fc89a30e06e6972e5fad729abc9900fc113f0df69a6ce9ec7e", (8, 8, True, False)),
    ("bestreply", 7, 35): (55, 35, "14578c33727c535e1304037e7481431346306a557a81d20139ba4a4b279f736e", (28, 28, True, False)),
    ("hill", 7, 35): (28, 35, "6aca05dbacd9ac32856568e62145ebd31f49d1080120c55007c2da9b295fe74b", (28, 28, True, False)),
    ("random", 7, 35): (30, 35, "aa681346c7dbd68f41671e58b3cbc331a59344390e6255ea4579363fd9f6a374", (30, 30, True, False)),
    ("bestreply", 9, 60): (118, 62, "19921ae182bde9e4f5e9f7c028752911222268d612b3f55ce8b28470bc8470d2", (60, 59, False, False)),
    ("hill", 9, 60): (60, 62, "723bf488d2379419c934ea1bf87ffb50866107091fd0adb0071185e7cfc04c31", (60, 60, False, False)),
    ("random", 9, 60): (60, 61, "d549cebdf4183c3da0e12af7de0bcd6109b102767091cadc144499c382572eac", (60, 60, False, False)),
}


def coloring_digest(adv):
    h = hashlib.sha256()
    for a in adv.transcript:
        v = a.value
        h.update(f"{sorted(a.vertex)}|{v.numerator}/{v.denominator}|{a.clause_item}|{int(a.replay)}\n".encode())
    h.update(f"{adv.order}|{[s['materialized'] for s in adv.stats]}\n".encode())
    return h.hexdigest()


def test_coloring_path_is_pinned():
    colored_small = False
    for (name, m, budget), want in COLORING_RUNS.items():
        adv = OddGraphAdversary(m, g=1, h=2, seed=m)
        res = SEARCHERS[name](adv, budget)
        got = (res.queries, res.steps, res.conceded, res.certified)
        assert (len(adv.transcript), len(adv.colored), coloring_digest(adv), got) == want, (name, m)
        assert res.certificate is None
        assert adversary_audit(adv)[0]
        assert_index_lists_blocked_once(adv)
        colored_small |= len(adv.colored) > adv.num_queries()
    assert colored_small


def test_color_component_takes_the_first_parent():
    # at m = 9 the odd graph has 6-cycles, so a vertex three steps from the
    # query can have two neighbours two steps from it
    m, mp = 9, 4
    q = mask_of(range(mp + 1))
    w = mask_of([0, 1, 5, 6, 7])
    assert odd_graph_distance(mp, q, w) == 3

    def dist(u):
        return odd_graph_distance(mp, q, u)

    # the component: every vertex on a shortest path from q to w, q excluded
    comp = {u for u in odd_graph_vertices(mp) if u != q and dist(u) + odd_graph_distance(mp, u, w) == 3}
    parents = [p for p in odd_graph_neighbors(mp, w) if p in comp and dist(p) == 2]
    assert len(parents) >= 2
    assert (w & parents[0]) != (w & max(parents))
    adv = OddGraphAdversary(m, g=1, h=2)
    adv._color_component(q, comp)
    assert set(adv.colored) == comp
    for u in comp:
        # the first neighbour, in neighbour order, one step closer to q
        parent = next(p for p in odd_graph_neighbors(mp, u) if p == q or (p in comp and dist(p) == dist(u) - 1))
        assert adv.colored[u].clause_item == (u & parent).bit_length() - 1
    assert adv.colored[w].clause_item == (w & parents[0]).bit_length() - 1


def test_adversary_fresh_values_strictly_increase():
    adv = OddGraphAdversary(9, g=1, h=2)
    rng = seeded(4)
    verts = rng.sample(odd_graph_vertices(4), 12)
    fresh = []
    for v in verts:
        ans = adv.answer(bundle_of(v))
        if not ans.replay:
            fresh.append(ans.value)
    assert all(b > a for a, b in zip(fresh, fresh[1:]))
    ok, problems = adversary_audit(adv)
    assert ok, problems


def test_adversary_replay_is_stable_and_free():
    adv = OddGraphAdversary(9, g=1, h=2)
    S = frozenset(range(5))
    first = adv.answer(S)
    before = adv.num_queries()
    again = adv.answer(S)
    assert again.replay
    assert again.value == first.value
    assert again.clause == first.clause
    assert adv.num_queries() == before


def test_adversary_rejects_wrong_size():
    adv = OddGraphAdversary(9, g=1, h=2)
    with pytest.raises(DomainError):
        adv.answer(frozenset(range(4)))


def test_adversary_clause_points_later_and_larger():
    adv = OddGraphAdversary(9, g=1, h=2)
    ans = adv.answer(frozenset(range(5)))
    assert ans.clause_item is not None
    partner = odd_graph_partner(4, mask_of(ans.vertex), ans.clause_item)
    assert partner not in adv.colored or adv.colored[partner].value > ans.value
    assert sum(ans.clause.values()) == ans.value


def test_tiny_graph_exhaustion_concedes_cleanly():
    adv = OddGraphAdversary(5, g=1, h=2)
    for v in odd_graph_vertices(2):
        adv.answer(bundle_of(v))
        if adv.conceded:
            break
    assert adv.conceded
    assert adv.num_queries() <= 10
    ok, problems = adversary_audit(adv)
    assert ok, problems


def test_view_realizes_all_answers():
    adv = OddGraphAdversary(9, g=1, h=2)
    rng = seeded(8)
    answered = [adv.answer(bundle_of(v)) for v in rng.sample(odd_graph_vertices(4), 8)]
    view = adv.view()
    for ans in answered:
        assert view.value(ans.vertex) == ans.value


def test_value_query_sizes():
    adv = OddGraphAdversary(5, g=1, h=3)
    assert adv.value_query({0}) == 1
    assert adv.value_query({0, 1}) == 2
    assert adv.value_query(range(5)) == 3
    # a window bundle forces its vertex subsets, then the floor wins
    before = adv.num_queries()
    assert adv.value_query({0, 1, 2, 3}) == Fraction(12, 5)
    assert adv.num_queries() == before + 4


def test_demand_query_is_exact_for_realized_map():
    adv = OddGraphAdversary(9, g=1, h=2, seed=1)
    rng = seeded(21)
    for _ in range(3):
        prices = [Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(9)]
        D = adv.demand_query(prices)
        view = adv.view()
        got = view.value(D) - sum((prices[j] for j in D), Fraction(0))
        _, want = brute_nonempty_demand(view, prices)
        assert got == want
    ok, problems = adversary_audit(adv)
    assert ok, problems


def rebuilt_view(adv):
    """A fresh valuation built from the adversary's colored vertices."""
    return SensitiveValuation(
        adv.m,
        k_map={mask: rec.k for mask, rec in adv.colored.items()},
        default_k=adv.default_k,
        clause_items={
            mask: rec.clause_item for mask, rec in adv.colored.items() if rec.clause_item is not None
        },
        g=adv.g,
        h=adv.h,
    )


def reference_demand_query(adv, prices):
    """The pivot loop on Fractions: take the best profit of the realized map,
    then answer unassigned vertices in brute cheapest order while m'+1/2
    minus the vertex's cost beats it. Returns (demand after, pivots)."""
    prices = [Fraction(p) for p in prices]
    half = adv.mp + Fraction(1, 2)
    view = rebuilt_view(adv)
    D = sparse_demand_oracle(view, prices)
    best = brute_sensitive_value(view, mask_of(D)) - sum((prices[j] for j in D), Fraction(0))
    pivots = 0
    for cost, mask in brute_cheapest_subsets(prices, adv.mp + 1):
        if mask in adv.colored:
            continue
        if half - cost <= best:
            break
        pivots += 1
        best = max(best, adv.answer(bundle_of(mask)).value - cost)
    return sparse_demand_oracle(rebuilt_view(adv), prices), pivots


def int_costs(prices, D):
    return [int(x * D) for x in prices]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_demand_query_matches_the_fraction_pivot_loop(data):
    # at m = 5 and 7 one query often stores several bumps, so the fold of
    # the new bumps runs on more than one
    m = data.draw(st.sampled_from([5, 7, 9, 11]))
    g = data.draw(st.integers(1, m // 2 - 1))
    h = data.draw(st.integers(2, m // 2 + 1))
    seed = data.draw(st.integers(0, 2 ** 16))
    adv = OddGraphAdversary(m, g=g, h=h, seed=seed)
    twin = OddGraphAdversary(m, g=g, h=h, seed=seed)
    for _ in range(data.draw(st.integers(1, 4))):
        # odd denominators share no factor with eps; halves and quarters make
        # ties with m'+1/2 reachable
        prices = []
        for _ in range(m):
            den = data.draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
            prices.append(Fraction(data.draw(st.integers(0, den)), den))
        before = len(adv.transcript)
        profit, mask, D = adv._demand_query(prices)
        view = rebuilt_view(adv)
        assert (profit, mask) == _sparse_demand(view, int_costs(prices, D), D)[:2]
        assert bundle_of(mask) == sparse_demand_oracle(view, prices)
        want, pivots = reference_demand_query(twin, prices)
        assert (bundle_of(mask), len(adv.transcript) - before) == (want, pivots)
        if m <= 9:
            paid = sum((prices[j] for j in bundle_of(mask)), Fraction(0))
            assert brute_sensitive_value(view, mask) - paid == Fraction(profit, D)
            assert Fraction(profit, D) == brute_nonempty_demand(view, prices)[1]
    assert [a.vertex for a in adv.transcript] == [a.vertex for a in twin.transcript]


@pytest.mark.parametrize("prices, bumps, stale, want", [
    # the pivot answers the stale best itself, which then wins at its new value
    (["0", "1/2", "1/4", "1/4", "1/2", "0", "3/4"], 1, (16899, {0, 2, 3, 5}), (16902, {0, 2, 3, 5})),
    # the stale best is answered below a later pivot, which wins
    (["0", "3/4", "1/4", "0", "1/4", "0", "1"], 2, (18435, {0, 2, 3, 5}), (18444, {0, 3, 4, 5})),
])
def test_demand_query_fold_replaces_a_stale_best(prices, bumps, stale, want):
    # at m = 7, g = 1, h = 3 the demand before the pivots contains a bump the
    # pivots stored, so its profit there is stale and must lose to the fold
    adv = OddGraphAdversary(7, g=1, h=3)
    prices = [Fraction(p) for p in prices]
    before = adv.view()
    profit, mask, D = adv._demand_query(prices)
    assert D == 6144 and len(adv.order) == bumps
    cost = int_costs(prices, D)
    p0, m0 = _sparse_demand(SensitiveValuation(7, g=1, h=3), cost, D)[:2]
    assert (p0, bundle_of(m0)) == (stale[0], frozenset(stale[1]))
    assert any(T & m0 == T for T in adv.order)
    assert (profit, bundle_of(mask)) == (want[0], frozenset(want[1]))
    assert (profit, mask) == _sparse_demand(rebuilt_view(adv), cost, D)[:2]
    assert Fraction(profit, D) == brute_nonempty_demand(rebuilt_view(adv), prices)[1]
    assert before is adv.view()


@pytest.mark.parametrize("m", [9, 11])
def test_live_view_tracks_a_best_reply_run(m):
    adv = OddGraphAdversary(m, g=1, h=3, seed=m)
    plain = adv.demand_query
    answered = []

    def demand_query(prices):
        D = plain(prices)
        assert D == sparse_demand_oracle(rebuilt_view(adv), prices)
        answered.append(D)
        return D

    adv.demand_query = demand_query
    SEARCHERS["bestreply"](adv, 40)
    assert len(answered) >= 10
    live = adv.view()
    assert live is adv.view()
    fresh = rebuilt_view(adv)
    assert live.k_map == fresh.k_map
    assert live.clause_items == fresh.clause_items
    assert live.by_k == fresh.by_k
    assert live.int_oracle()[1] == fresh.int_oracle()[1]
    ok, problems = adversary_audit(adv)
    assert ok, problems


@pytest.mark.parametrize("corrupt", ["stray-bump", "edited-k", "dropped-item"])
def test_audit_flags_a_drifted_live_view(corrupt):
    adv = OddGraphAdversary(9, g=1, h=2)
    SEARCHERS["hill"](adv, 10)
    assert adversary_audit(adv)[0]
    live = adv.view()
    if corrupt == "stray-bump":
        stray = next(v for v in odd_graph_vertices(4) if v not in adv.colored)
        live.add_bump(stray, Fraction(1, 8))
    elif corrupt == "edited-k":
        live.k_map[adv.order[0]] += adv.eps
    else:
        del live.clause_items[next(iter(live.clause_items))]
    ok, problems = adversary_audit(adv)
    assert not ok
    assert ("view-drift", len(adv.colored)) in problems


def test_window_query_cap_boundary(monkeypatch):
    # a 6-item window bundle at m = 7 has C(6, 4) = 15 vertex subsets
    monkeypatch.setattr(hardness, "WINDOW_QUERY_FACTOR", 2)
    adv = OddGraphAdversary(7, g=1, h=4)
    with pytest.raises(CapabilityError, match=r"15 > 2 \* m"):
        adv.value_query(range(6))
    assert adv.num_queries() == 0
    # one answered subset leaves exactly 2m = 14 to force
    adv.answer(range(4))
    assert adv.value_query(range(6)) == Fraction(24, 7)
    assert adv.num_queries() == 15


def test_demand_pivot_cap_boundary(monkeypatch):
    # at m = 7 these prices take 2m = 14 and 2m + 1 = 15 pivots
    at_cap = [Fraction(p) for p in ("5/12", "3/8", "5/12", "3/8", "5/12", "7/12", "5/12")]
    past_cap = [Fraction(p) for p in ("1/3", "3/8", "3/8", "1/3", "1/3", "1/2", "1/3")]
    for prices, pivots in ((at_cap, 14), (past_cap, 15)):
        adv = OddGraphAdversary(7, g=1, h=3)
        adv.demand_query(prices)
        assert len(adv.transcript) == pivots
    monkeypatch.setattr(hardness, "DEMAND_PIVOT_FACTOR", 2)
    adv = OddGraphAdversary(7, g=1, h=3)
    adv.demand_query(at_cap)
    assert len(adv.transcript) == 14
    adv = OddGraphAdversary(7, g=1, h=3)
    with pytest.raises(CapabilityError, match=r"cap 2 \* m"):
        adv.demand_query(past_cap)
    assert len(adv.transcript) == 14


def test_kmap_cap_boundary():
    # size-11 bundles of 21 items in ascending mask order, one shared k
    masks = sorted(mask_of(c) for c in itertools.islice(itertools.combinations(range(21), 11), KMAP_CAP + 1))
    k = Fraction(1, 8)
    extra = masks.pop()
    full = {mask: k for mask in masks}
    sv = SensitiveValuation(21, k_map=full, g=1, h=2)
    assert len(sv.k_map) == len(sv.by_k) == KMAP_CAP
    with pytest.raises(CapabilityError):
        sv.add_bump(extra, k)
    assert extra not in sv.k_map and len(sv.by_k) == KMAP_CAP
    sv.add_bump(extra, None, min(bundle_of(extra)))  # a clause item alone stores no bump
    full[extra] = k
    with pytest.raises(CapabilityError):
        SensitiveValuation(21, k_map=full, g=1, h=2)


def test_add_bump_checks_before_storing():
    sv = SensitiveValuation(9, g=1, h=2)
    key = mask_of(range(5))
    for bad in ({"bundle": mask_of(range(4)), "k": Fraction(1, 8)},
                {"bundle": key, "k": Fraction(1, 4)},
                {"bundle": key, "k": sv.default_k / 2},
                {"bundle": key, "k": Fraction(1, 8), "clause_item": 7},
                {"bundle": key, "clause_item": -1},
                {"bundle": key, "clause_item": 1.0},
                {"bundle": key, "clause_item": "1"}):
        with pytest.raises(DomainError):
            sv.add_bump(**bad)
        assert not sv.k_map and not sv.clause_items and not sv.by_k
    sv.add_bump(key, Fraction(1, 24), 2)
    assert sv.int_oracle()[1] == math.lcm(24, sv.default_k.denominator)
    with pytest.raises(DomainError):
        sv.add_bump(key, Fraction(1, 8))
    assert sv.k_map == {key: Fraction(1, 24)} and sv.clause_items == {key: 2}


def test_sensitive_json_rejects_a_negative_clause_item():
    d = SensitiveValuation(9, g=1, h=2).to_json()
    d["clause_items"] = [[list(range(5)), -1]]
    with pytest.raises(DomainError, match="clause item"):
        valuation_from_json(d)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_stored_oracle_follows_a_seeded_bump_sequence(seed):
    # bumps one at a time over nondyadic_sensitive's denominators and the
    # adversary's dyadic ks x * eps; after each, the stored oracle is E times
    # the brute value on every mask, the table is in lowest terms, and E is
    # the lcm recomputed from the stored ks, replaced only when it must grow
    rng = seeded(seed)
    g, h = rng.choice([(1, 2), (2, 3), (1, 4), (2, 5)])
    sv = SensitiveValuation(9, g=g, h=h)
    eps = Fraction(1, 2 ** 12)
    for x, bmask in enumerate(rng.sample(odd_graph_vertices(4), rng.randint(1, 12)), 1):
        den = rng.choice([3, 5, 7, 81, 2 ** 13, None])
        k = x * eps if den is None else max(Fraction(rng.randint(1, 4 * den - 1), 16 * den), sv.default_k)
        before = sv.int_oracle()
        sv.add_bump(bmask, k, rng.choice([None, *sorted(bundle_of(bmask))]))
        f, E = sv.int_oracle()
        assert (sv.int_oracle() is before) == (before[1] % k.denominator == 0)
        dens = [sv.default_k.denominator, *(k.denominator for k in sv.k_map.values())]
        assert E == math.lcm(4, 4 + h, *dens)
        want = [brute_sensitive_value(sv, t) for t in range(1 << 9)]
        assert [f(t) for t in range(1 << 9)] == [E * w for w in want]
        ints, D = sv.value_table()
        assert math.gcd(D, *ints) == 1
        assert [Fraction(x, D) for x in ints] == want


@pytest.mark.parametrize("name", sorted(SEARCHERS))
def test_searchers_run_to_budget_on_small_family(name):
    adv = OddGraphAdversary(9, g=1, h=2)
    result = SEARCHERS[name](adv, 30)
    assert result.queries >= 30 or result.conceded or result.certified
    assert result.queries == adv.num_queries()
    ok, problems = adversary_audit(adv)
    assert ok, problems


class ScriptedAdversary:
    """Answers vertices from a script of mask -> (value, clause item); a
    missing clause item concedes."""

    def __init__(self, mp, script):
        self.mp = mp
        self.script = script
        self.transcript = []
        self.conceded = False

    def num_queries(self):
        return len({mask_of(a.vertex) for a in self.transcript})

    def answer(self, S):
        value, j = self.script[mask_of(S)]
        ans = AdversaryAnswer(frozenset(S), value, Fraction(0), None, j, False, j is None)
        self.conceded |= j is None
        self.transcript.append(ans)
        return ans


@pytest.mark.parametrize("partner_item", [3, None])
def test_search_stops_on_a_certified_local_max(partner_item):
    # the real adversary never lets two answers certify; a scripted one does,
    # also with the answer that concedes
    mp = 2
    a = mask_of([0, 1, 2])
    p = odd_graph_partner(mp, a, 2)
    script = {a: (Fraction(3), 2), p: (Fraction(2), partner_item)}
    cert = LocalMaxCertificate(bundle_of(a), 2, Fraction(3), Fraction(2))
    want = SearchResult(2, partner_item is None, True, cert, 2)
    adv = ScriptedAdversary(mp, script)
    asked = []

    def to_partner(S, ans):
        asked.append(S)
        return bundle_of(odd_graph_partner(mp, mask_of(S), ans.clause_item))

    assert hardness._search(adv, 10, bundle_of(a), to_partner) == want
    assert asked == [bundle_of(a)]
    # the partner answered inside the step, as a demand pivot is: the search
    # stops before it asks the step's vertex
    adv = ScriptedAdversary(mp, script)

    def pivot(S, ans):
        adv.answer(bundle_of(p))
        return S

    want.steps = 1
    assert hardness._search(adv, 10, bundle_of(a), pivot) == want
    assert len(adv.transcript) == 2


def test_hill_climb_on_tiny_graph_ends_without_certificate():
    adv = OddGraphAdversary(5, g=1, h=2)
    result = SEARCHERS["hill"](adv, 100)
    assert result.conceded or result.certified or result.queries >= 100
    assert not result.certified
    ok, problems = adversary_audit(adv)
    assert ok, problems


# -- isoperimetry ---------------------------------------------------------------------


def test_isoperimetric_o3_exhaustive_frozen():
    out = isoperimetric_check(3)
    assert out["mode"] == "exhaustive"
    assert out["vertices"] == 10
    assert out["ok"], out["failures"]
    assert out["max_edges"] == {1: 0, 2: 1, 3: 2, 4: 3, 5: 5, 6: 6, 7: 8, 8: 10, 9: 12, 10: 15}


def test_isoperimetric_o4_sampled():
    out = isoperimetric_check(4, samples=300, seed=0)
    assert out["mode"] == "sampled"
    assert out["vertices"] == 35
    assert out["max_edges"][2] == 1
    assert out["ok"], out["failures"]


def test_isoperimetric_bound_floor_is_exact():
    # bound_floor[k] = floor(2k log2(k) / 3), the largest f with 2^(3f) <= k^(2k)
    out3 = isoperimetric_check(3)
    assert out3["bound_floor"] == {1: 0, 2: 1, 3: 3, 4: 5, 5: 7, 6: 10, 7: 13, 8: 16, 9: 19, 10: 22}
    out4 = isoperimetric_check(4, samples=300, seed=0)
    assert set(out4["bound_floor"]) == set(out4["max_edges"])
    for k, f in out4["bound_floor"].items():
        assert 2 ** (3 * f) <= k ** (2 * k) < 2 ** (3 * (f + 1)), k


def test_isoperimetric_exhaustive_cap_boundary(monkeypatch):
    # O_3 has C(5, 2) = 10 vertices
    monkeypatch.setattr(hardness, "ISO_EXHAUSTIVE_CAP", 10)
    assert isoperimetric_check(3)["mode"] == "exhaustive"
    monkeypatch.setattr(hardness, "ISO_EXHAUSTIVE_CAP", 9)
    with pytest.raises(CapabilityError, match="10 vertices > 9"):
        isoperimetric_check(3)


def test_isoperimetric_exhaustive_cap():
    assert ISO_EXHAUSTIVE_CAP < 35
    with pytest.raises(CapabilityError):
        isoperimetric_check(4)
