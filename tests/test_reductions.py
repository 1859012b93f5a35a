from fractions import Fraction

import pytest

from sspeq import reductions
from sspeq.auction import is_pure_nash_no_overbid, resolve, welfare
from sspeq.reductions import (
    SetPairSystem,
    SetPairValuation,
    WeightedGraph,
    build_good_set_pair_system,
    equilibrium_not_local_max_search,
    equilibrium_witness,
    find_unprotected_set,
    local_max_bids,
    local_max_check,
    maxcut_valuation,
    star_gap_instance,
    verify_set_pair_system,
)
from sspeq.valuations import (
    AdditiveValuation,
    ConstructionError,
    DomainError,
    bundle_of,
    valuation_from_json,
    verify_class,
)

CORNER = SetPairSystem(
    8, [(frozenset({0, 1}), frozenset({2, 3})), (frozenset({2, 4}), frozenset({1, 5}))]
)


def utility_after(vals, bids, i, row):
    new_bids = [list(r) for r in bids]
    new_bids[i] = list(row)
    alloc, payments = resolve(new_bids)
    return vals[i].value(alloc[i]) - payments[i]


def current_utility(vals, bids, i):
    alloc, payments = resolve(bids)
    return vals[i].value(alloc[i]) - payments[i]


# -- set-pair systems -----------------------------------------------------------


def test_corner_system_verifies():
    ok, problems = verify_set_pair_system(CORNER)
    assert ok, problems


def test_verify_rejects_bad_systems():
    ok, problems = verify_set_pair_system(SetPairSystem(12, []))
    assert not ok and problems[0][0] == "m-not-multiple-of-8"
    bad = SetPairSystem(8, [(frozenset({0, 1}), frozenset({1, 2}))])
    assert any(p[0] == "pair-not-disjoint" for p in verify_set_pair_system(bad)[1])
    bad = SetPairSystem(8, [(frozenset({0}), frozenset({1, 2}))])
    assert any(p[0] == "pair-size" for p in verify_set_pair_system(bad)[1])
    disjoint = SetPairSystem(
        8, [(frozenset({0, 1}), frozenset({2, 3})), (frozenset({4, 5}), frozenset({6, 7}))]
    )
    assert any(p[0] == "cross-intersection" for p in verify_set_pair_system(disjoint)[1])


@pytest.mark.parametrize("m,count", [(8, 2), (8, 3), (16, 4)])
def test_builder_output_verifies(m, count):
    system = build_good_set_pair_system(m, count, seed=7)
    assert system.count() == count
    ok, problems = verify_set_pair_system(system)
    assert ok, problems


def test_setpair_retry_factor_boundary(monkeypatch):
    # seed 1 at m = 16 takes between 16 * 6 and 17 * 6 samples for 6 pairs
    default = build_good_set_pair_system(16, 6, seed=1)
    monkeypatch.setattr(reductions, "SETPAIR_RETRY_FACTOR", 17)
    assert build_good_set_pair_system(16, 6, seed=1).pairs == default.pairs
    monkeypatch.setattr(reductions, "SETPAIR_RETRY_FACTOR", 16)
    with pytest.raises(ConstructionError, match=r"96 samples = 16 \* count"):
        build_good_set_pair_system(16, 6, seed=1)


def test_builder_rejects_bad_m():
    with pytest.raises(DomainError):
        build_good_set_pair_system(12, 2)


def test_system_json_round_trip():
    again = SetPairSystem.from_json(CORNER.to_json())
    assert again.m == CORNER.m
    assert again.pairs == CORNER.pairs


# -- set-pair valuations ----------------------------------------------------------


def test_set_pair_values():
    v = SetPairValuation(CORNER, (1, 0), 0)
    assert v.value(frozenset()) == 0
    assert v.value({0, 1}) == 2  # flagged own pair
    assert v.value({2, 4}) == 1  # unflagged own pair
    assert v.value({5}) == 1
    assert v.value(range(7)) == 2  # big bundle
    assert v.threshold == 7


def test_set_pair_subadditive_exhaustive():
    for flags, player in (((1, 0), 0), ((0, 1), 1), ((1, 1), 0)):
        v = SetPairValuation(CORNER, flags, player)
        ok, witness = verify_class(v, "subadditive")
        assert ok, witness


def test_set_pair_json_round_trip():
    v = SetPairValuation(CORNER, (0, 1), 1)
    w = valuation_from_json(v.to_json())
    for mask in range(1 << 8):
        assert w._value_mask(mask) == v._value_mask(mask)


def test_set_pair_rejects_bad_flags():
    with pytest.raises(DomainError):
        SetPairValuation(CORNER, (1,), 0)
    with pytest.raises(DomainError):
        SetPairValuation(CORNER, (1, 2), 0)


# -- the common-flag witness --------------------------------------------------------


def test_witness_is_equilibrium_with_zero_payments():
    vals = (SetPairValuation(CORNER, (1, 0), 0), SetPairValuation(CORNER, (1, 1), 1))
    bids = equilibrium_witness(CORNER, (1, 0), (1, 1), 0)
    assert all(b in (0, Fraction(1, 32)) for row in bids for b in row)
    alloc, payments = resolve(bids)
    assert payments == (0, 0)
    assert vals[0].value(alloc[0]) == 2
    assert vals[1].value(alloc[1]) == 2
    ok, witnesses = is_pure_nash_no_overbid(vals, bids)
    assert ok, witnesses


def test_witness_needs_common_flag():
    with pytest.raises(DomainError):
        equilibrium_witness(CORNER, (1, 0), (0, 1), 0)
    with pytest.raises(DomainError):
        equilibrium_witness(CORNER, (1, 0), (1, 1), 2)


@pytest.mark.parametrize("flags1,flags2", [((1,), (1,)), ((1, 0), (1,)), ((1, 0, 1), (1, 1)), ((2, 0), (1, 1))])
def test_witness_needs_one_flag_bit_per_pair(flags1, flags2):
    with pytest.raises(DomainError, match="one bit per pair"):
        equilibrium_witness(CORNER, flags1, flags2, 1)


# -- unprotected sets ----------------------------------------------------------------


def test_finder_flagged_pair_case():
    vals = (SetPairValuation(CORNER, (1, 0), 0), SetPairValuation(CORNER, (0, 1), 1))
    bids = ((0,) * 8, (Fraction(1, 4), Fraction(1, 4), 0, 0, 0, 0, 0, 0))
    dev = find_unprotected_set(vals, bids)
    assert dev.case == "flagged-pair"
    assert dev.unprotected == {0, 1}
    assert dev.bidder == 0
    got = utility_after(vals, bids, dev.bidder, dev.bids)
    assert got >= dev.expected_utility
    assert got > current_utility(vals, bids, dev.bidder)


def test_finder_all_but_one_case():
    vals = (SetPairValuation(CORNER, (1, 0), 0), SetPairValuation(CORNER, (0, 1), 1))
    bids = ((0,) * 8, (Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0, 0, 0))
    dev = find_unprotected_set(vals, bids)
    assert dev.case == "all-but-one"
    assert dev.unprotected == frozenset(range(1, 8))
    got = utility_after(vals, bids, dev.bidder, dev.bids)
    assert got >= dev.expected_utility == Fraction(3, 2)
    assert got > current_utility(vals, bids, dev.bidder)


def test_finder_scan_case():
    vals = (SetPairValuation(CORNER, (0, 0), 0), SetPairValuation(CORNER, (0, 1), 1))
    bids = ((0,) * 8, (Fraction(1, 8),) * 8)
    dev = find_unprotected_set(vals, bids)
    assert dev.case == "scan"
    assert len(dev.unprotected) == 7
    assert dev.rival_total == Fraction(7, 8)
    got = utility_after(vals, bids, dev.bidder, dev.bids)
    assert got >= dev.expected_utility
    assert got > current_utility(vals, bids, dev.bidder)


def test_finder_corner_profile_is_protected_equilibrium():
    # rival mass sits exactly at 1 on the flagged pair but leaks off it,
    # blocking both special cases and the scan; the profile is a real
    # equilibrium even though the bidders share no flag
    vals = (SetPairValuation(CORNER, (1, 0), 0), SetPairValuation(CORNER, (0, 1), 1))
    eps = Fraction(1, 32)
    row0 = [0] * 8
    row0[2] = row0[3] = eps
    row1 = [0] * 8
    row1[0] = row1[1] = row1[5] = Fraction(1, 2)
    bids = (tuple(row0), tuple(row1))
    assert find_unprotected_set(vals, bids) is None
    ok, witnesses = is_pure_nash_no_overbid(vals, bids)
    assert ok, witnesses


def test_finder_needs_a_weak_side():
    vals = (SetPairValuation(CORNER, (1, 0), 0), SetPairValuation(CORNER, (1, 1), 1))
    bids = equilibrium_witness(CORNER, (1, 0), (1, 1), 0)
    with pytest.raises(DomainError):
        find_unprotected_set(vals, bids)


def test_finder_rejects_other_families_and_bad_bids():
    additive = (AdditiveValuation(2, [1, 0]), AdditiveValuation(2, [0, 1]))
    with pytest.raises(DomainError, match="SetPairValuation"):
        find_unprotected_set(additive, [[1, 0], [0, 1]])
    mixed = (SetPairValuation(CORNER, (1, 0), 0), AdditiveValuation(8, [1] * 8))
    with pytest.raises(DomainError, match="SetPairValuation"):
        find_unprotected_set(mixed, ((0,) * 8, (0,) * 8))
    vals = (SetPairValuation(CORNER, (1, 0), 0), SetPairValuation(CORNER, (0, 1), 1))
    for bids in (((0,) * 7, (0,) * 7), ((0,) * 8, (-1,) + (0,) * 7), ((0,) * 8,)):
        with pytest.raises(DomainError):
            find_unprotected_set(vals, bids)


# -- weighted graphs ------------------------------------------------------------------


def test_weighted_graph_validation():
    with pytest.raises(DomainError):
        WeightedGraph(3, [(0, 0, 1)])
    with pytest.raises(DomainError):
        WeightedGraph(3, [(0, 3, 1)])
    with pytest.raises(DomainError):
        WeightedGraph(3, [(0, 1, -1)])
    with pytest.raises(DomainError):
        WeightedGraph(3, [(0, 1, 1), (1, 0, 2)])


def test_weighted_graph_weights_and_json():
    g = WeightedGraph(4, [(2, 0, Fraction(3, 2)), (1, 3, 1)])
    assert g.edges[0] == (0, 2, Fraction(3, 2))
    assert g.total_weight() == Fraction(5, 2)
    assert g.cut_weight({0, 1}) == Fraction(5, 2)
    assert g.cut_weight({0, 3}) == Fraction(5, 2)
    assert g.cut_weight({0}) == Fraction(3, 2)
    assert g.cut_weight({0, 2}) == 0
    assert g.cut_weight(frozenset()) == 0
    again = WeightedGraph.from_json(g.to_json())
    assert again.edges == g.edges


def test_maxcut_valuation_touches_edges():
    g = WeightedGraph(3, [(0, 1, 1), (0, 2, 1)])
    v = maxcut_valuation(g)
    assert v.value({0}) == 2
    assert v.value({1, 2}) == 2
    assert v.value({1}) == 1


def test_welfare_equals_total_plus_cut():
    g = WeightedGraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1)])
    vals = (maxcut_valuation(g), maxcut_valuation(g))
    for mask in range(1 << 4):
        side = bundle_of(mask)
        alloc = (side, frozenset(range(4)) - side)
        assert welfare(vals, alloc) == g.total_weight() + g.cut_weight(side)


def test_local_max_check_matches_one_flip_cuts():
    g = WeightedGraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1)])
    vals = (maxcut_valuation(g), maxcut_valuation(g))
    for mask in range(1 << 4):
        side = set(bundle_of(mask))
        alloc = (frozenset(side), frozenset(range(4)) - side)
        base = g.cut_weight(side)
        flip_improves = False
        for v in range(4):
            flipped = side ^ {v}
            if g.cut_weight(flipped) > base:
                flip_improves = True
        is_lm, move = local_max_check(vals, alloc)
        assert is_lm == (not flip_improves), sorted(side)
        if not is_lm:
            i, ip, j = move
            assert j in alloc[i] and ip != i


@pytest.mark.parametrize("alloc, why", [
    ([{0, 5}, {1}], "unknown items"),
    ([{0, 1}, {1}], "overlap"),
])
def test_local_max_check_rejects_a_bad_allocation(alloc, why):
    g = WeightedGraph(2, [(0, 1, 1)])
    with pytest.raises(DomainError, match=why):
        local_max_check((maxcut_valuation(g), maxcut_valuation(g)), alloc)


def test_local_max_bids_are_owner_first_marginals():
    g = WeightedGraph(3, [(0, 1, 1), (0, 2, 1)])
    vals = (maxcut_valuation(g), maxcut_valuation(g))
    bids = local_max_bids(vals, (frozenset({0}), frozenset({1, 2})))
    assert bids == ((2, 0, 0), (0, 1, 1))


def test_star_gap_dual_certificate():
    star = star_gap_instance()
    vals = (maxcut_valuation(star.graph), maxcut_valuation(star.graph))
    assert star.bids == ((0, 0, 1), (1, 1, 0))
    alloc, _ = resolve(star.bids)
    assert alloc == star.alloc
    ok, witnesses = is_pure_nash_no_overbid(vals, star.bids, alloc=star.alloc)
    assert ok, witnesses
    is_lm, move = local_max_check(vals, star.alloc)
    assert not is_lm
    assert move == star.move
    i, ip, j = star.move
    moved = list(star.alloc)
    moved[i] = moved[i] - {j}
    moved[ip] = moved[ip] | {j}
    assert welfare(vals, moved) > welfare(vals, star.alloc)


def test_equilibrium_not_local_max_search_checks_its_witness():
    found = equilibrium_not_local_max_search(range(300), max_vertices=6)
    if found is None:
        pytest.skip("no random witness in this seed range; the star covers the claim")
    vals = (maxcut_valuation(found.graph), maxcut_valuation(found.graph))
    ok, _ = is_pure_nash_no_overbid(vals, found.bids, alloc=found.alloc)
    assert ok
    is_lm, _ = local_max_check(vals, found.alloc)
    assert not is_lm


# a README face that read its input before any check
BAD_SHAPES = {
    "local-max-no-bidders": (lambda: local_max_bids([], []), "need at least one bidder"),
    "witness-float-index": (
        lambda: equilibrium_witness(SetPairSystem(4, [({0}, {1})]), (1,), (1,), 0.0),
        "pair index must be an int",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_a_bad_shape_at_a_readme_face_raises_domain_error(case):
    call, message = BAD_SHAPES[case]
    with pytest.raises(DomainError, match=message):
        call()
