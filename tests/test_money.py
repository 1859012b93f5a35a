from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sspeq.auction import check_bids, check_no_overbidding, resolve
from sspeq.hardness import SensitiveValuation, sparse_demand_oracle
from sspeq.money import (
    checked_money,
    format_money,
    money_gcd,
    parse_money,
    rescale,
    scale_to_ints,
)
from sspeq.reductions import WeightedGraph
from sspeq.valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    CoverageValuation,
    DomainError,
    XOSExplicitValuation,
)


def test_parse_accepts_fraction_int_string():
    assert parse_money(Fraction(3, 7)) == Fraction(3, 7)
    assert parse_money(5) == Fraction(5)
    assert parse_money("9/4") == Fraction(9, 4)
    assert parse_money("12") == Fraction(12)


def test_parse_rejects_float():
    with pytest.raises(TypeError):
        parse_money(0.5)


# a string that is no rational, at parse_money and at faces that read money
MALFORMED = {
    "parse-word": lambda: parse_money("x"),
    "parse-zero-denominator": lambda: parse_money("1/0"),
    "parse-infinity": lambda: parse_money("inf"),
    "additive-item": lambda: AdditiveValuation(2, ("x", 1)),
    "resolve-bid": lambda: resolve([["1/0", 1]]),
    "demand-price": lambda: AdditiveValuation(2, (1, 1)).demand(["x", 1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_money_string_raises_domain_error(case):
    with pytest.raises(DomainError, match="cannot parse money from '"):
        MALFORMED[case]()


def test_checked_money_reads_any_row_of_money():
    row = checked_money(iter(["1/2", 3, Fraction(0)]), "prices", 3)
    assert row == (Fraction(1, 2), Fraction(3), Fraction(0))
    assert all(type(x) is Fraction for x in row)
    assert checked_money([], "bids") == ()
    with pytest.raises(TypeError):
        checked_money([1, 0.5], "bids")


# a row that is not iterable, at every face that reads a money row
NOT_A_ROW = {
    "additive-items": lambda: AdditiveValuation(2, 5),
    "demand-prices": lambda: AdditiveValuation(2, (1, 1)).demand(5),
    "bids-row": lambda: check_bids([5]),
    "overbidding-row": lambda: check_no_overbidding(AdditiveValuation(2, (1, 1)), 5),
    "sparse-demand-prices": lambda: sparse_demand_oracle(SensitiveValuation(9, g=1, h=2), 5),
}


@pytest.mark.parametrize("case", sorted(NOT_A_ROW))
def test_a_money_row_that_is_not_iterable_raises_domain_error(case):
    with pytest.raises(DomainError, match="must be a row of money, got int"):
        NOT_A_ROW[case]()


# an outer list of rows or edges that is not iterable, or an edge that is
# no (u, v, weight) triple
NOT_A_LIST = {
    "bids": (lambda: check_bids(5), "bids must be a list of rows, got int"),
    "xos-clauses": (lambda: XOSExplicitValuation(2, 5), "clauses must be a list of rows, got int"),
    "coverage-edges": (lambda: CoverageValuation(2, 5), "edges must be a list of rows, got int"),
    "coverage-pair": (lambda: CoverageValuation(2, [(0, 1)]), r"an edge must be \(u, v, weight\), got \(0, 1\)"),
    "coverage-int": (lambda: CoverageValuation(2, [5]), r"an edge must be \(u, v, weight\), got 5"),
}


@pytest.mark.parametrize("case", sorted(NOT_A_LIST))
def test_an_outer_shape_that_is_wrong_raises_domain_error(case):
    call, message = NOT_A_LIST[case]
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


# the message of every face whose money goes through checked_money
MONEY_MESSAGES = {
    "prices-width": (lambda: AdditiveValuation(2, (1, 1)).demand([1]), "expected 2 prices, got 1"),
    "prices-sign": (lambda: AdditiveValuation(2, (1, 1)).demand([1, -1]), "prices must be nonnegative"),
    "items-width": (lambda: AdditiveValuation(2, (1,)), "expected 2 item values, got 1"),
    "items-sign": (lambda: AdditiveValuation(2, (1, "-1/2")), "item values must be nonnegative"),
    "budget-items-width": (
        lambda: BudgetAdditiveValuation(2, 3, (1, 1, 1)), "expected 2 item values, got 3"
    ),
    "budget-sign": (lambda: BudgetAdditiveValuation(2, -3, (1, 1)), "budget must be nonnegative"),
    "clause-width": (lambda: XOSExplicitValuation(2, [(1, 1), (1,)]), "expected 2 clause weights, got 1"),
    "clause-sign": (lambda: XOSExplicitValuation(2, [(1, -1)]), "clause weights must be nonnegative"),
    "coverage-sign": (lambda: CoverageValuation(2, [(0, 1, -1)]), "edge weights must be nonnegative"),
    "graph-sign": (lambda: WeightedGraph(2, [(0, 1, "-1")]), "edge weights must be nonnegative"),
    "bids-sign": (lambda: check_bids([[1, -1]]), "bids must be nonnegative"),
}


@pytest.mark.parametrize("case", sorted(MONEY_MESSAGES))
def test_every_money_face_names_its_row(case):
    call, message = MONEY_MESSAGES[case]
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_format_always_has_denominator():
    assert format_money(3) == "3/1"
    assert format_money(Fraction(1, 2)) == "1/2"
    assert format_money(Fraction(-7, 3)) == "-7/3"
    assert format_money(0) == "0/1"


def test_money_gcd_basics():
    assert money_gcd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
    assert money_gcd(Fraction(4), Fraction(6)) == Fraction(2)
    assert money_gcd(Fraction(5, 8), 0) == Fraction(5, 8)
    assert money_gcd(0, 0) == 0


@given(st.fractions())
def test_round_trip(x):
    assert parse_money(format_money(x)) == x


@given(st.fractions(), st.fractions())
def test_gcd_divides_both(a, b):
    g = money_gcd(a, b)
    if g != 0:
        assert (abs(a) / g).denominator == 1
        assert (abs(b) / g).denominator == 1


def test_scale_to_ints_basics():
    assert scale_to_ints([Fraction(3, 4), Fraction(5, 6), 7]) == ([9, 10, 84], 12)
    assert scale_to_ints([]) == ([], 1)
    assert rescale([1, 2], 3, 12) == [4, 8]


@given(st.lists(st.fractions(), max_size=8))
def test_scaling_is_exact_and_keeps_order(xs):
    ints, D = scale_to_ints(xs)
    assert D > 0
    assert [Fraction(k, D) for k in ints] == xs
    for a, ka in zip(xs, ints):
        for b, kb in zip(xs, ints):
            assert (a < b) == (ka < kb) and (a == b) == (ka == kb)
    big = rescale(ints, D, 5 * D)
    assert [Fraction(k, 5 * D) for k in big] == xs
