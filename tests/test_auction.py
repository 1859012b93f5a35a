from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_best_deviation,
    brute_coverage_table,
    brute_optimal_welfare,
    random_additive,
    random_budget_additive,
    random_cover_table,
    random_coverage,
    random_submodular_table,
    random_table,
    reference_partition_dp,
    reference_resolve,
    seeded,
)
from sspeq.auction import (
    OPT_WORK_CAP,
    SUBSET_CAP,
    _best_split,
    _branch_items,
    _opt_step_bound,
    _split_above,
    _split_bound,
    best_deviation,
    check_no_overbidding,
    greedy_allocation,
    is_pure_nash_no_overbid,
    is_traditional,
    item_count,
    optimal_welfare,
    resolve,
    welfare,
)
from sspeq.reductions import local_max_bids, local_max_check
from sspeq.stealing import run_iterative_stealing
from sspeq.topsteal import preprocess_to_competitors, top_steal
from sspeq.valuations import (
    LANE_CODES,
    AdditiveValuation,
    CapabilityError,
    CoverageValuation,
    DomainError,
    TableValuation,
    _kept_lane_masks,
    _subset_max,
    bundle_of,
    lane_guard,
    lane_masks,
    lanes_of,
    lanes_top,
    mask_of,
    max_passes,
    pack_lanes,
    verify_class,
    widen_lanes,
)


def test_resolve_ties_to_lowest_index():
    alloc, payments = resolve([[1, 2], [1, 0]])
    assert alloc == (frozenset({0, 1}), frozenset())
    assert payments == (Fraction(1), Fraction(0))


def test_resolve_assigns_every_item():
    alloc, payments = resolve([[0, 0, 0], [0, 0, 0]])
    assert alloc == (frozenset({0, 1, 2}), frozenset())
    assert payments == (Fraction(0), Fraction(0))


def test_resolve_payment_is_highest_rival():
    alloc, payments = resolve([[5], [3], [4]])
    assert alloc == (frozenset({0}), frozenset(), frozenset())
    assert payments[0] == 4


@st.composite
def _bid_profiles(draw):
    """Profiles of 1..4 rows of 0..6 bids, each a/d with a in 0..3 (so ties
    are common) and d from 1..6 or one denominator for the whole profile."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    den = draw(st.one_of(st.integers(1, 6).map(st.just), st.just(st.integers(1, 6))))
    bid = st.builds(Fraction, st.integers(0, 3), den)
    return [draw(st.lists(bid, min_size=m, max_size=m)) for _ in range(n)]


@given(_bid_profiles())
@settings(max_examples=150, deadline=None)
def test_resolve_matches_the_fraction_loop(bids):
    # the int path (one scaling of the profile) against the Fraction loop,
    # with n = 1 and m = 0 among the draws
    want = reference_resolve(bids)
    got = resolve(bids)
    assert got == want
    assert all(type(x) is Fraction for x in got[1])


def test_resolve_of_one_bidder_or_no_items():
    assert resolve([[]]) == ((frozenset(),), (Fraction(0),))
    assert resolve([[], []]) == ((frozenset(), frozenset()), (Fraction(0), Fraction(0)))
    assert resolve([["1/2", 3]]) == ((frozenset({0, 1}),), (Fraction(0),))


def test_welfare_rejects_overlap():
    vs = [AdditiveValuation(2, (1, 1)), AdditiveValuation(2, (1, 1))]
    with pytest.raises(DomainError):
        welfare(vs, [{0}, {0}])


@pytest.mark.parametrize("width", [2, 4])
def test_equilibrium_checks_reject_bids_of_the_wrong_width(width):
    vs = [AdditiveValuation(3, (1, 1, 1)), AdditiveValuation(3, (2, 1, 1))]
    bids = [[1] * width, [0] * width]
    with pytest.raises(DomainError, match=f"expected 3 items, got {width}"):
        is_pure_nash_no_overbid(vs, bids)
    with pytest.raises(DomainError, match=f"expected 3 items, got {width}"):
        is_traditional(vs, [{0, 1, 2}, set()], bids)


def test_no_overbidding_checker():
    v = AdditiveValuation(2, (1, 1))
    assert check_no_overbidding(v, (1, 1))[0]
    ok, witness = check_no_overbidding(v, (2, 0))
    assert not ok
    assert witness["S"] == [0]
    # every nonempty bundle overbids; submasks run in descending order
    assert check_no_overbidding(v, (2, 2))[1]["S"] == [0, 1]


def test_optimal_welfare_frozen():
    vs = [
        AdditiveValuation(2, (3, 1)),
        TableValuation(2, [0, 2, 2, 3]),
    ]
    opt, alloc = optimal_welfare(vs)
    assert opt == 5
    assert welfare(vs, alloc) == 5


def _tie_heavy_instance(seed, m=6):
    """Unit-ish weights on three families: several allocations reach OPT."""
    rng = seeded(seed)
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    tab_edges = [(u, v, Fraction(1, 3)) for u, v in pairs if rng.random() < 0.4]
    cov = CoverageValuation(m, [(u, v, Fraction(1, 2)) for u, v in pairs if rng.random() < 0.4])
    tab = TableValuation(m, brute_coverage_table(m, tab_edges))
    return [cov, tab, AdditiveValuation(m, [Fraction(1, 2)] * m)]


@pytest.mark.parametrize(
    "seed, want_opt, want_alloc",
    [
        (5, Fraction(17, 3), ([0, 5], [3], [1, 2, 4])),
        (10, Fraction(14, 3), ([0, 4], [2], [1, 3, 5])),
    ],
)
def test_optimal_welfare_frozen_tie_break(seed, want_opt, want_alloc):
    # eight allocations reach OPT on each instance; the DP's pick is frozen
    vs = _tie_heavy_instance(seed)
    opt, alloc = optimal_welfare(vs)
    assert opt == want_opt
    assert tuple(sorted(S) for S in alloc) == want_alloc


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_optimal_welfare_matches_assignment_enumeration(seed):
    rng = seeded(seed)
    n, m = rng.randint(2, 3), rng.randint(2, 4)
    vs = [random_submodular_table(rng, m) for _ in range(n)]
    want, _ = brute_optimal_welfare(vs)
    got, alloc = optimal_welfare(vs)
    assert got == want
    assert welfare(vs, alloc) == want


def _mixed_family(rng, n, m):
    """n bidders of mixed kinds, coverage among them, each with its own
    weight denominators."""
    kinds = [random_coverage, random_additive, random_budget_additive]
    vs = [random_coverage(rng, m, den=rng.randint(1, 6))]
    for _ in range(n - 1):
        if rng.random() < 0.25:
            vs.append(random_submodular_table(rng, m))
        else:
            vs.append(kinds[rng.randrange(3)](rng, m, den=rng.randint(1, 6)))
    rng.shuffle(vs)
    return vs


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_optimal_welfare_mixed_families_match_brute(seed):
    rng = seeded(seed)
    vs = _mixed_family(rng, rng.randint(1, 3), rng.randint(1, 4))
    want, _ = brute_optimal_welfare(vs)
    got, alloc = optimal_welfare(vs)
    assert got == want
    assert welfare(vs, alloc) == want


def _tie_heavy_table(rng, m, monotone):
    """Values in halves from 0 to 3: many allocations tie at OPT. Monotone
    tables add a step of 0 or 1/2 to the best one-item-smaller bundle."""
    values = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        if monotone:
            low = max(values[mask ^ (1 << j)] for j in range(m) if mask >> j & 1)
            values[mask] = low + Fraction(rng.randint(0, 1), 2)
        else:
            values[mask] = Fraction(rng.randint(0, 6), 2)
    return TableValuation(m, values, validate=monotone)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_optimal_welfare_allocation_matches_reference_dp(seed):
    # the allocation, not only the value: bidder 0's bitwise max must break
    # ties as the 3^m walk does, on monotone and non-monotone tables alike
    rng = seeded(seed)
    n, m = rng.randint(1, 4), rng.randint(1, 7)
    monotone = rng.random() < 0.5
    vs = [_tie_heavy_table(rng, m, monotone) for _ in range(n)]
    assert optimal_welfare(vs) == reference_partition_dp(vs)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_optimal_welfare_on_identical_bidders_matches_brute_and_reference_dp(seed):
    # n identical additive or budget-additive bidders, unit weights among
    # them: many allocations reach OPT and the middle search's bound ties
    # across many t and splits
    rng = seeded(seed)
    n, m = rng.randint(1, 4), rng.randint(1, 6)
    kind = rng.choice([random_additive, random_budget_additive])
    vs = [kind(rng, m, lo=1, hi=rng.randint(1, 3), den=rng.randint(1, 2))] * n
    got = optimal_welfare(vs)
    assert got == reference_partition_dp(vs)
    if n ** m <= 4096:
        assert got[0] == brute_optimal_welfare(vs)[0]


def _certify_shaped(rng, n, m):
    """Two coverage bidders and a submodular table, as `sspeq verify` sees
    them, then n - 3 more of the mixed families."""
    vs = [random_coverage(rng, m), random_coverage(rng, m), random_submodular_table(rng, m)]
    return vs + (_mixed_family(rng, n - 3, m) if n > 3 else [])


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_optimal_welfare_matches_reference_dp_when_pruned(seed):
    # n = 3 at m = 8 is the certify shape, where most masks are pruned;
    # n = 4 and 5 also run the full rows of the bidders before the middle one
    rng = seeded(seed)
    n = rng.randint(3, 5)
    vs = _certify_shaped(rng, n, 8 if n == 3 else rng.randint(1, 6))
    assert optimal_welfare(vs) == reference_partition_dp(vs)


def test_optimal_welfare_prunes_the_middle_walk(monkeypatch):
    # the bound prunes: on certify-shaped instances the submask walks (the
    # middle bidder's and the picks') cover a small share of the 2^m masks
    walked = []

    def recording(prev, vals, mask):
        walked.append(mask)
        return _best_split(prev, vals, mask)

    def searching(a, b, A, B, pR, first, R, floor):
        walked.append(R)
        return _split_above(a, b, A, B, pR, first, R, floor)

    monkeypatch.setattr("sspeq.auction._best_split", recording)
    monkeypatch.setattr("sspeq.auction._split_above", searching)
    for seed in range(10):
        optimal_welfare(_certify_shaped(seeded(seed), 3, 8))
    assert len(walked) < 10 * (1 << 8) // 8


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_certify_shaped_theorem_holds_beyond_brute_sizes(seed):
    # certify's instances at m = 12-13, tables 4-8 times as large: stealing
    # from the pool settles in an equilibrium whose welfare W has W <= OPT
    # <= 2W, OPT's allocation attains OPT, and the pool profile (bidder 0's
    # initial bids) is an equilibrium exactly when no steal was taken
    rng = seeded(seed)
    m = rng.randint(12, 13)
    vs = [random_coverage(rng, m), random_coverage(rng, m), random_cover_table(rng, m)]
    run = run_iterative_stealing(vs, [set(range(m)), set(), set()])
    opt, opt_alloc = optimal_welfare(vs)
    assert welfare(vs, opt_alloc) == opt
    w = welfare(vs, run.alloc)
    assert w <= opt <= 2 * w
    ok, witnesses = is_pure_nash_no_overbid(vs, run.bids, run.alloc)
    assert ok, witnesses
    pool_bids = [run.log.initial_prices, [0] * m, [0] * m]
    assert is_pure_nash_no_overbid(vs, pool_bids)[0] == (run.log.steals() == 0)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_opt_is_a_local_max_whose_procedure_bids_certify(seed):
    # two theorem oracles on certify's instances at m = 12-13, past brute
    # sizes: OPT's allocation is a local maximum, and for submodular bidders
    # the procedure's bids on a local maximum admit no steal, so the
    # equilibrium check (the lane deviation on 2^12-2^13 masks) certifies
    # them; an item its owner bids 0 on resolves to bidder 0, so the check
    # runs on the resolved allocation, which moves only such items
    rng = seeded(seed)
    m = rng.randint(12, 13)
    vs = [random_coverage(rng, m), random_coverage(rng, m), random_cover_table(rng, m)]
    _, alloc = optimal_welfare(vs)
    assert local_max_check(vs, alloc) == (True, None)
    bids = local_max_bids(vs, alloc)
    ok, witnesses = is_pure_nash_no_overbid(vs, bids)
    assert ok, witnesses
    moved = [j for j in range(m) if (j in alloc[0]) != (j in resolve(bids)[0][0])]
    assert all(row[j] == 0 for row in bids for j in moved)


@st.composite
def _subset_max_rows(draw):
    """Rows of 2^m entries, m = 1..9, whose span (max - min) is 0, small, or
    one below or at a lane's guard bit 2^7, 2^15, 2^31, 2^63, 2^70 or 2^127,
    from a minimum anywhere in +-2^70 or one that keeps every entry < 0.
    Some rows draw their entries from a few values, so many lanes tie."""
    size = 1 << draw(st.integers(1, 9))
    span = draw(st.one_of(
        st.just(0),
        st.integers(1, 80),
        st.sampled_from([(1 << b) + d for b in (7, 15, 31, 63, 70, 127) for d in (-1, 0)]),
    ))
    lo = draw(st.one_of(
        st.integers(-40, 40),
        st.integers(-(1 << 70), 1 << 70),
        st.integers(-(1 << 70), -1).map(lambda x: x - span),
    ))
    entries = st.integers(0, span)
    if draw(st.booleans()):
        entries = st.sampled_from(draw(st.lists(entries, min_size=1, max_size=3)))
    row = [lo + x for x in draw(st.lists(entries, min_size=size, max_size=size))]
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 2))
    row[i], row[j + (j >= i)] = lo, lo + span
    return row


@given(_subset_max_rows())
@settings(max_examples=120, deadline=None)
def test_subset_max_matches_brute(row):
    # every lane width, and rows too wide for 64-bit lanes, which run on
    # lanes of as many bytes as they need; a row that is its own subset max
    # comes back as it is
    want = [max(row[t] for t in range(mask + 1) if t & mask == t) for mask in range(len(row))]
    got = _subset_max(row)
    assert got == want
    assert (got is row) == (want == row)


@given(_subset_max_rows())
@settings(max_examples=80, deadline=None)
def test_widen_lanes_matches_pack_lanes_and_keeps_the_top_lane(row):
    # every pair of widths that holds the row's span, 1 to 8 bytes and 16-
    # and 24-byte word lanes, both ways; the rows sit on either side of a
    # guard bit, so the narrowest width is often full to its top bit. Where
    # the span clears the guard bit, lanes_top finds the largest lane.
    lo, span = min(row), max(row) - min(row)
    widths = [w for w in (1, 2, 4, 8, 16, 24) if span >> 8 * w == 0]
    for nbytes in widths:
        X = pack_lanes(row, lo, nbytes)
        for to in widths:
            Y = widen_lanes(X, nbytes, to, len(row))
            assert Y == pack_lanes(row, lo, to)
            if span >> 8 * to - 1 == 0:
                assert lanes_top(Y, to, len(row), lane_guard(to, len(row))) == span


def test_lane_masks_keep_the_lanes_without_the_bit():
    for nbytes in LANE_CODES:
        for size in (1, 2, 8, 64):
            masks = list(lane_masks(nbytes, size))
            assert len(masks) == size.bit_length() - 1
            for p, keep in enumerate(masks):
                want = b"".join((b"\0" if k >> p & 1 else b"\xff") * nbytes for k in range(size))
                assert keep.to_bytes(nbytes * size, "little") == want
    # a table whose masks exceed LANE_CACHE_BYTES builds them per call and
    # keeps none of them: 2^14 lanes of 16 bits
    row = [j % 1000 - 500 for j in range(1 << 14)]
    want = list(row)
    for bit in (1 << j for j in range(14)):
        for mask in range(len(want)):
            if mask & bit:
                want[mask] = max(want[mask], want[mask ^ bit])
    kept = _kept_lane_masks.cache_info()
    assert _subset_max(row) == want
    assert _kept_lane_masks.cache_info() == kept


def _bound_entries(small, base):
    """Ints in +-small, or anywhere in +-2^66 (so a row's span may need lanes
    wider than 64 bits), shifted by `base`."""
    return st.one_of(st.integers(-small, small), st.integers(-(1 << 66), 1 << 66)).map(base.__add__)


@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.sampled_from([0, 1 << 64, -(1 << 64)]).flatmap(
        lambda base: st.lists(_bound_entries(30, base), min_size=1 << m, max_size=1 << m)),
    st.sampled_from([0, 1 << 64]).flatmap(
        lambda base: st.lists(_bound_entries(30, base), min_size=1 << m, max_size=1 << m)),
    st.lists(st.one_of(st.integers(-10, 10), _bound_entries(0, 0)), min_size=m, max_size=m),
)))
@settings(max_examples=120, deadline=None)
def test_split_bound_covers_the_exact_split(tables):
    # the packed before, A, B and ub against brute subset maxes, on rows with
    # negative entries, negative prices and entries at or past 2^64: before
    # is b's subset max (b itself when that is b), each other row is exact
    # up to a constant, the constants sum to c, and rest = A + B - ub; rows
    # given as lanes at denominator 1, scaled by k = 3 to D = 3, give the
    # rows of the tripled tables at D = 3
    a, b, prices = tables
    before, A, B, ub, c = _split_bound(lanes_of(a, 1), lanes_of(b, 1), b, prices, 1)
    ones = [lanes_of(row, 1) for row in (a, b)]
    tripled = [lanes_of([3 * x for x in row], 3) for row in (a, b)]
    triple = [3 * x for x in prices]
    assert _split_bound(*ones, tripled[1].ints, triple, 3) == _split_bound(*tripled, tripled[1].ints, triple, 3)
    rest = [x + y - z for x, y, z in zip(A, B, ub)]
    ps = [sum(x for j, x in enumerate(prices) if t >> j & 1) for t in range(len(a))]
    subs = [[t for t in range(R + 1) if t & R == t] for R in range(len(a))]
    want_before = [max(b[t] for t in ts) for ts in subs]
    assert before == want_before
    assert (before is b) == (want_before == b)
    want_A = [max(a[t] - ps[t] for t in ts) for ts in subs]
    want_B = [max(want_before[t] - ps[t] for t in ts) for ts in subs]
    assert len({x - y for x, y in zip(A, want_A)}) == 1
    assert len({x - y for x, y in zip(B, want_B)}) == 1
    assert len({x + y for x, y in zip(rest, ps)}) == 1
    for R, ts in enumerate(subs):
        assert A[R] + B[0] + c - rest[0] == want_A[R] + want_B[0] + ps[0]
        assert ub[R] + c == want_A[R] + want_B[R] + ps[R]
        assert ub[R] + c >= max(a[t] + b[R ^ t] for t in ts)


class CountingRow(list):
    """A table row that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.lists(st.integers(-30, 30), min_size=1 << m, max_size=1 << m),
    st.lists(st.integers(-30, 30), min_size=1 << m, max_size=1 << m),
    st.lists(st.integers(-10, 10), min_size=m, max_size=m),
    st.integers(0, (1 << m) - 1),
    st.integers(-4, 4),
)))
@settings(max_examples=120, deadline=None)
def test_split_above_is_the_best_split_when_it_beats_the_floor(case):
    # exact whenever the best split beats the floor, None otherwise, for the
    # branching order optimal_welfare uses and for highest item first; the
    # pruned search reads each of R's 2^|R| splits of `a` at most once
    a, b, prices, R, offset = case
    want = max(a[s] + b[R ^ s] for s in range(R + 1) if s & R == s)
    floor = want + offset
    _, A, B, ub, c = _split_bound(lanes_of(a, 1), lanes_of(b, 1), b, prices, 1)
    first = _branch_items(A, B)
    assert all(first[f] & f and first[f].bit_count() == 1 for f in range(1, len(a)))
    highest = [1 << f.bit_length() >> 1 for f in range(len(a))]
    for order in (first, highest):
        row = CountingRow(a)
        got = _split_above(row, b, A, B, c - A[R] - B[R] + ub[R], order, R, floor)
        assert got == (want if want > floor else None)
        assert row.reads <= 1 << R.bit_count()


class NoTableCoverage(CoverageValuation):
    """A coverage bidder whose value table must never be built."""

    def value_table(self):
        raise AssertionError("value_table built past the cap")

    table_lanes = value_table


def test_optimal_welfare_cap_boundary():
    # the cap is on the DP's step bound: three bidders fit at m = 15, not at
    # m = 16, and the refusal comes before any table is built
    assert _opt_step_bound(3, 15) <= OPT_WORK_CAP < _opt_step_bound(3, 16)
    vs = [CoverageValuation(15, [(0, 1, 1)]), CoverageValuation(15, [(1, 2, 2)]),
          CoverageValuation(15, [(3, 4, 1)])]
    opt, alloc = optimal_welfare(vs)
    assert opt == 4
    assert welfare(vs, alloc) == opt
    with pytest.raises(CapabilityError, match=f"exceeds {OPT_WORK_CAP}"):
        optimal_welfare([NoTableCoverage(16, [(0, 1, 1)])] * 3)


@pytest.mark.parametrize("m", [16, 18])
def test_optimal_welfare_answers_two_bidders_at_large_m(m):
    # two bidders take a subset max and one split, O(m 2^m) steps, so
    # m = 18 is inside the step bound
    a = [Fraction(j % 5 + 1) for j in range(m)]
    b = [Fraction(3 * j % 7 + 1, 2) for j in range(m)]
    vs = [AdditiveValuation(m, a), AdditiveValuation(m, b)]
    opt, alloc = optimal_welfare(vs)
    assert opt == sum(map(max, a, b))
    assert welfare(vs, alloc) == opt


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_optimal_welfare_steps_stay_within_the_precheck_bound(seed):
    # every submask step of _best_split and _split_above and every run of
    # the lane passes (bidder 0's subset max and the bound's A and B), on
    # mixed families and on tie-heavy tables where the middle search prunes
    # little
    rng = seeded(seed)
    n, m = rng.randint(1, 4), rng.randint(1, 6)
    if rng.random() < 0.5:
        vs = _mixed_family(rng, n, m)
    else:
        vs = [_tie_heavy_table(rng, m, rng.random() < 0.5) for _ in range(n)]
    steps = []

    def split(prev, vals, mask):
        steps.append(1 << mask.bit_count())
        return _best_split(prev, vals, mask)

    def passes(X, nbytes, size):
        steps.append(m * size)
        return max_passes(X, nbytes, size)

    def search(a, b, A, B, pR, first, R, floor):
        # at most R's 2^|R| splits, as test_split_above_... checks
        steps.append(1 << R.bit_count())
        return _split_above(a, b, A, B, pR, first, R, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sspeq.auction._best_split", split)
        mp.setattr("sspeq.auction._split_above", search)
        mp.setattr("sspeq.auction.max_passes", passes)
        mp.setattr("sspeq.valuations.max_passes", passes)
        optimal_welfare(vs)
    assert sum(steps) <= _opt_step_bound(n, m)


def test_bidders_of_different_m_are_a_domain_error():
    # one check, in item_count, serves every entry that reads the bidders' m
    vs = [AdditiveValuation(2, (1, 1)), AdditiveValuation(3, (1, 1, 1))]
    alloc, bids = [{0}, {1}], [[1, 0], [0, 1]]
    calls = [
        lambda: item_count(vs),
        lambda: welfare(vs, alloc),
        lambda: greedy_allocation(vs),
        lambda: optimal_welfare(vs),
        lambda: is_traditional(vs, alloc, bids),
        lambda: is_pure_nash_no_overbid(vs, bids),
        lambda: run_iterative_stealing(vs, alloc),
        lambda: top_steal(vs, [{0}, {1}]),
        lambda: preprocess_to_competitors(vs, [{0}, {1}]),
        lambda: local_max_check(vs, alloc),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="valuations disagree on m"):
            call()


def test_empty_bidder_list_is_a_domain_error():
    for f in (optimal_welfare, greedy_allocation):
        with pytest.raises(DomainError, match="need at least one bidder"):
            f([])


def test_best_deviation_rejects_a_bidder_out_of_range():
    vs = [AdditiveValuation(2, (3, 1)), AdditiveValuation(2, (2, 2))]
    bids = [[2, 0], [0, 1]]
    assert best_deviation(vs, 1, bids).utility == 2
    # -1 would index the last bidder but count its own bids as rivals
    for i in (-1, 2):
        with pytest.raises(DomainError, match="not within 0..1"):
            best_deviation(vs, i, bids)


def test_best_deviation_rejects_a_bid_profile_of_the_wrong_length():
    # with one row short, bidder 0's only rival row is bidder 1's zeros,
    # so both items looked free: utility 3 + 4 = 7
    vs = [AdditiveValuation(2, (3, 4)), AdditiveValuation(2, (0, 0)), AdditiveValuation(2, (5, 5))]
    for bids in ([[0, 0], [0, 0]], [[0, 0], [0, 0], [5, 5], [5, 5]]):
        with pytest.raises(DomainError, match=f"expected 3 bid rows, got {len(bids)}"):
            best_deviation(vs, 0, bids)
    assert best_deviation(vs, 0, [[0, 0], [0, 0], [5, 5]]).utility == 0


def test_check_no_overbidding_rejects_a_row_of_the_wrong_width():
    v = AdditiveValuation(2, (1, 1))
    for row in ((1, 1, 1), (1,)):
        with pytest.raises(DomainError, match="valuation does not match bid width"):
            check_no_overbidding(v, row)


def test_check_no_overbidding_rejects_a_negative_bid():
    # a negative bid fell outside the support, and the row passed the check
    v = AdditiveValuation(2, (3, 1))
    with pytest.raises(DomainError, match="bids must be nonnegative"):
        check_no_overbidding(v, [-1, 0])


def test_best_deviation_frozen_strictness():
    # rival price on the item equals the value: not strictly winnable
    v = AdditiveValuation(1, (2,))
    d = best_deviation([v, AdditiveValuation(1, (0,))], 0, [[0], [2]])
    assert d.bundle == frozenset()
    assert d.utility == 0
    d = best_deviation([v, AdditiveValuation(1, (0,))], 0, [[0], [1]])
    assert d.bundle == {0}
    assert d.utility == 1
    assert d.payment == 1


def test_best_deviation_blocked_by_subset():
    # the pair clears its total price but item 1 alone is priced at value
    v = TableValuation(2, [0, 1, 1, 2])
    rival = [[Fraction(0), Fraction(1)], [0, 0]]
    d = best_deviation([None, v], 1, rival)
    assert d.bundle == {0}
    assert d.utility == 1


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_best_deviation_matches_brute(seed):
    rng = seeded(seed)
    n, m = rng.randint(2, 3), rng.randint(2, 4)
    kinds = [random_additive, random_budget_additive, random_submodular_table]
    vs = [kinds[rng.randrange(3)](rng, m) for _ in range(n)]
    bids = [
        [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)]
        for _ in range(n)
    ]
    i = rng.randrange(n)
    want_u, want_S, want_pay = brute_best_deviation(vs, i, bids)
    d = best_deviation(vs, i, bids)
    assert (d.utility, d.bundle, d.payment) == (want_u, want_S, want_pay)


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_best_deviation_matches_brute_at_ties(seed, block_all):
    # the rival prices either tie the value of one bundle S exactly, spread
    # evenly over S, or meet every single item's value, which blocks every
    # bundle; the deviator's own bids do not matter. For a subadditive v a
    # blocked bundle never beats its unblocked part, so only the general
    # monotone tables, with complements, show whether blocking spreads up.
    rng = seeded(seed)
    m = rng.randint(1, 5)
    v = rng.choice([
        lambda: random_coverage(rng, m),
        lambda: random_submodular_table(rng, m),
        lambda: TableValuation(m, random_table(rng, m)),
    ])()
    if block_all:
        prices = [v.value({j}) + Fraction(rng.randint(0, 1), 2) for j in range(m)]
    else:
        S = bundle_of(rng.randint(1, (1 << m) - 1))
        share = v.value(S) / len(S)
        prices = [share if j in S else Fraction(rng.randint(0, 4), 2) for j in range(m)]
    bids = [[Fraction(rng.randint(0, 4)) for _ in range(m)], prices]
    want_u, want_S, want_pay = brute_best_deviation([v, None], 0, bids)
    d = best_deviation([v, None], 0, bids)
    assert (d.utility, d.bundle, d.payment) == (want_u, want_S, want_pay)
    if block_all:
        assert (d.utility, d.bundle) == (0, frozenset())


def _edge_deviation_case(rng, table, prices):
    """(valuations, bids) whose bidder 0 has an edge table for the lane
    deviation: unchecked with negative entries, past 2^64 (word lanes), at
    a denominator of 7 against prices at 4 or 5, or in halves against
    prices in halves, where many bundles tie; the rival's bids, the
    deviator's prices, are random, all zero, or at least each item's value,
    which blocks every bundle."""
    m = rng.randint(1, 5)
    scale, top, dens = 1, 6, (4, 5)
    if table == "negative":
        values = [0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(1, 1 << m)]
        v = TableValuation(m, values, validate=False)
    elif table == "wide":
        scale = 1 << rng.choice((64, 70, 130))
        v = TableValuation(m, [x * scale for x in random_table(rng, m)])
    elif table == "ties":
        v, top, dens = _tie_heavy_table(rng, m, False), 2, (2,)
    else:
        v = TableValuation(m, [x / 7 for x in random_table(rng, m)])
    if prices == "zero":
        rival = [0] * m
    elif prices == "block":
        rival = [max(v.value({j}), 0) + Fraction(rng.randint(0, 1), 4) * scale for j in range(m)]
    else:
        rival = [Fraction(rng.randint(0, top), rng.choice(dens)) * scale for _ in range(m)]
    own = [Fraction(rng.randint(0, 4), 3) * scale for _ in range(m)]
    vs = [v, AdditiveValuation(m, [Fraction(rng.randint(0, 6), 5) * scale for _ in range(m)])]
    return vs, [own, rival]


@given(st.integers(0, 10_000), st.sampled_from(["negative", "wide", "coprime", "ties"]),
       st.sampled_from(["random", "zero", "block"]))
@settings(max_examples=120, deadline=None)
def test_lane_deviation_matches_brute_on_edge_tables(seed, table, prices):
    # best_deviation and the equilibrium check's deviation witnesses, for
    # both bidders, against the brute definition
    vs, bids = _edge_deviation_case(seeded(seed), table, prices)
    alloc, paid = reference_resolve(bids)
    want = []
    for i, v in enumerate(vs):
        u, S, pay = brute_best_deviation(vs, i, bids)
        d = best_deviation(vs, i, bids)
        assert (d.utility, d.bundle, d.payment) == (u, S, pay)
        current = v.value(alloc[i]) - paid[i]
        if u > current:
            want.append({"kind": "deviation", "bidder": i, "bundle": sorted(S), "utility": u, "current": current})
    if prices == "block":
        assert best_deviation(vs, 0, bids).bundle == frozenset()
    _, witnesses = is_pure_nash_no_overbid(vs, bids)
    assert [x for x in witnesses if x["kind"] == "deviation"] == want


def test_best_deviation_ties_go_to_fewer_items_then_the_lower_item():
    # {0, 1} and {2} both gain 1, and {2} has fewer items though its mask is
    # larger; {0, 3} and {1, 2} both gain 1 and {0, 3} holds the lower item
    v = TableValuation(3, [0, 1, 1, 2, 2, 2, 2, 2])
    d = best_deviation([v, None], 0, [[0] * 3, [Fraction(1, 2), Fraction(1, 2), 1]])
    assert (d.utility, d.bundle, d.payment) == (1, {2}, 1)
    h = Fraction(3, 2)
    w = TableValuation(4, [0, 1, 1, h, 1, h, 2, 2, 1, 2, h, 2, h, 2, 2, 2])
    d = best_deviation([w, None], 0, [[0] * 4, [Fraction(1, 2)] * 4])
    assert (d.utility, d.bundle, d.payment) == (1, {0, 3}, 1)


def _kept_table_instance(seed):
    rng = seeded(seed)
    m = 5
    vs = [random_coverage(rng, m), TableValuation(m, random_table(rng, m, monotone=False), validate=False),
          random_submodular_table(rng, m)]
    bids = [[Fraction(rng.randint(0, 4), 2) for _ in range(m)] for _ in vs]
    return vs, bids


def _kernel_answers(vs, bids):
    return (optimal_welfare(vs), is_pure_nash_no_overbid(vs, bids),
            [best_deviation(vs, i, bids) for i in range(len(vs))],
            [verify_class(v, "monotone") for v in vs])


@pytest.mark.parametrize("seed", range(4))
def test_a_mutated_value_table_changes_no_later_opt_or_check(seed):
    # tables and coverage keep their ints and lanes; value_table() hands out
    # copies, so rewriting one, before the lanes are first read or after,
    # changes no later answer
    vs, bids = _kept_table_instance(seed)
    want = _kernel_answers(*_kept_table_instance(seed))
    for _ in range(2):
        for v in vs:
            ints, _ = v.value_table()
            ints[:] = [3 - 2 * x for x in ints]
        assert _kernel_answers(vs, bids) == want


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_best_deviation_mixed_families_match_brute(seed):
    rng = seeded(seed)
    n, m = rng.randint(2, 3), rng.randint(1, 4)
    vs = _mixed_family(rng, n, m)
    bids = [
        [Fraction(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(m)]
        for _ in range(n)
    ]
    for i in range(n):
        want_u, want_S, want_pay = brute_best_deviation(vs, i, bids)
        d = best_deviation(vs, i, bids)
        assert (d.utility, d.bundle, d.payment) == (want_u, want_S, want_pay)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_no_overbidding_matches_brute(seed):
    rng = seeded(seed)
    m = rng.randint(1, 5)
    v = random_coverage(rng, m, den=rng.randint(1, 6))
    row = [Fraction(rng.randint(0, 3), rng.randint(1, 4)) * (rng.random() < 0.6) for _ in range(m)]
    over = [
        bundle_of(t)
        for t in range(1, 1 << m)
        if sum((row[j] for j in bundle_of(t)), Fraction(0)) > v.value(bundle_of(t))
    ]
    ok, witness = check_no_overbidding(v, row)
    assert ok == (not over)
    if not ok:
        S = frozenset(witness["S"])
        assert S in over
        assert witness["bids"] == sum((row[j] for j in S), Fraction(0))
        assert witness["value"] == v.value(S)


@pytest.fixture(scope="module")
def unit_demand_18():
    """v(S) = 1 for every nonempty S over 18 items, as an explicit table."""
    return TableValuation(18, [0] + [1] * ((1 << 18) - 1))


def test_best_deviation_cap_boundary(unit_demand_18):
    rival = [0] + [1] * 17
    d = best_deviation([unit_demand_18, unit_demand_18], 0, [[0] * 18, rival])
    assert (d.utility, d.bundle, d.payment) == (1, frozenset({0}), 0)
    v = CoverageValuation(19, [(0, 1, 1)])
    with pytest.raises(CapabilityError):
        best_deviation([v, v], 0, [[0] * 19, [0] * 19])


def test_no_overbidding_cap_boundary(unit_demand_18):
    ok, _ = check_no_overbidding(unit_demand_18, [Fraction(1, 18)] * 18)
    assert ok
    ok, witness = check_no_overbidding(unit_demand_18, [Fraction(1, 17)] * 18)
    assert not ok
    assert witness["S"] == list(range(18))
    v = CoverageValuation(19, [(0, 1, 1)])
    with pytest.raises(CapabilityError):
        check_no_overbidding(v, [1] * 19)


def test_no_overbidding_evaluates_support_submasks_only():
    v = CoverageValuation(40, [(j, j + 1, 1) for j in range(39)])
    seen = []
    inner, D = v._oracle
    v._oracle = (lambda mask: seen.append(mask) or inner(mask)), D
    row = [0] * 40
    row[3] = row[17] = row[39] = Fraction(1, 2)
    assert check_no_overbidding(v, row) == (True, None)
    items = [3, 17, 39]
    assert sorted(seen) == sorted(mask_of(S) for r in (1, 2, 3) for S in combinations(items, r))


def _reference_equilibrium_check(vs, bids, alloc):
    """is_pure_nash_no_overbid through the public faces, one bidder check at
    a time: a mismatch, then overbidding by bidder, then deviations."""
    res_alloc, payments = resolve(bids)
    witnesses = []
    if alloc is not None and tuple(frozenset(S) for S in alloc) != res_alloc:
        witnesses.append({"kind": "allocation-mismatch", "resolved": res_alloc})
    for i, v in enumerate(vs):
        ok, w = check_no_overbidding(v, bids[i])
        if not ok:
            witnesses.append({"kind": "overbidding", "bidder": i, **w})
    for i, v in enumerate(vs):
        current = v.value(res_alloc[i]) - payments[i]
        dev = best_deviation(vs, i, bids)
        if dev.utility > current:
            witnesses.append({"kind": "deviation", "bidder": i, "bundle": sorted(dev.bundle),
                              "utility": dev.utility, "current": current})
    return not witnesses, witnesses


def _bid_profile(rng, vs, kind):
    """One bid row per bidder: random rationals, or pool-style singleton
    values (which overbid whenever a bundle is worth less than its items)."""
    m = vs[0].m
    rows = [[Fraction(0)] * m for _ in vs]
    for i, v in enumerate(vs):
        if kind == "pool" and i == 0:
            rows[i] = [v.value({j}) for j in range(m)]
        elif kind == "random" or rng.random() < 0.5:
            rows[i] = [Fraction(rng.randint(0, 4), rng.randint(1, 5)) * (rng.random() < 0.7)
                       for _ in range(m)]
    return rows


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_equilibrium_check_matches_public_faces(seed):
    rng = seeded(seed)
    n, m = rng.randint(1, 3), rng.randint(1, 5)
    vs = _mixed_family(rng, n, m)
    for kind in ("pool", "random", "mixed"):
        bids = _bid_profile(rng, vs, kind)
        alloc = None
        if rng.random() < 0.5:
            alloc = resolve(bids)[0] if rng.random() < 0.5 else [set()] * (n - 1) + [set(range(m))]
        want = _reference_equilibrium_check(vs, bids, alloc)
        got = is_pure_nash_no_overbid(vs, bids, alloc)
        assert got == want
        for w in got[1]:
            if w["kind"] == "overbidding":
                S = frozenset(w["S"])
                assert type(w["value"]) is Fraction and w["value"] == vs[w["bidder"]].value(S)
                assert w["bids"] == sum((bids[w["bidder"]][j] for j in S), Fraction(0))


def test_equilibrium_check_caps_before_building_tables(unit_demand_18, monkeypatch):
    def no_table(self):
        raise AssertionError("value_table built past the cap")

    # at the cap: bidder 0 wins every item at zero bids; bidder 1 can take one
    ok, witnesses = is_pure_nash_no_overbid([unit_demand_18] * 2, [[0] * 18] * 2)
    assert not ok
    assert witnesses == [{"kind": "deviation", "bidder": 1, "bundle": [0], "utility": 1, "current": 0}]
    m = SUBSET_CAP + 1
    v = CoverageValuation(m, [(0, 1, 1)])
    monkeypatch.setattr(CoverageValuation, "value_table", no_table)
    monkeypatch.setattr(CoverageValuation, "table_lanes", no_table)
    with pytest.raises(CapabilityError, match=f"m={SUBSET_CAP}"):
        is_pure_nash_no_overbid([v, v], [[0] * m, [1] * m])


def test_truthful_additive_is_equilibrium():
    vs = [AdditiveValuation(3, (3, 1, 2)), AdditiveValuation(3, (1, 4, 2))]
    bids = [list(v.item_values) for v in vs]
    ok, witnesses = is_pure_nash_no_overbid(vs, bids)
    assert ok, witnesses


def test_equilibrium_check_reports_deviation():
    vs = [AdditiveValuation(2, (5, 5)), AdditiveValuation(2, (1, 1))]
    bids = [[0, 0], [1, 1]]
    ok, witnesses = is_pure_nash_no_overbid(vs, bids)
    assert not ok
    kinds = {w["kind"] for w in witnesses}
    assert "deviation" in kinds


def test_equilibrium_check_reports_overbidding():
    vs = [AdditiveValuation(2, (1, 1)), AdditiveValuation(2, (1, 1))]
    bids = [[2, 0], [0, 1]]
    ok, witnesses = is_pure_nash_no_overbid(vs, bids)
    assert not ok
    assert any(w["kind"] == "overbidding" for w in witnesses)


def test_is_traditional():
    vs = [AdditiveValuation(2, (2, 1)), AdditiveValuation(2, (1, 3))]
    alloc = (frozenset({0}), frozenset({1}))
    ok, _ = is_traditional(vs, alloc, [[2, 0], [0, 3]])
    assert ok
    ok, witness = is_traditional(vs, alloc, [[2, 1], [0, 3]])
    assert not ok
    assert witness["item"] == 1


def test_greedy_allocation_ties_to_lowest():
    vs = [AdditiveValuation(2, (1, 2)), AdditiveValuation(2, (1, 2))]
    assert greedy_allocation(vs) == (frozenset({0, 1}), frozenset())


def test_greedy_allocation_uses_marginals():
    # one unit of budget: second item has zero marginal for the first bidder
    from sspeq.valuations import BudgetAdditiveValuation

    vs = [BudgetAdditiveValuation(2, 1, (1, 1)), AdditiveValuation(2, (0, Fraction(1, 2)))]
    assert greedy_allocation(vs) == (frozenset({0}), frozenset({1}))
