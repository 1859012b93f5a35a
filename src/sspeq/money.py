"""Exact rational money helpers. Everything monetary is a Fraction.

`parse_money` reads one amount. `checked_money` is the one entry for a money
row or nonnegative scalar from outside (bids, prices, item values, clause
weights, a budget, edge weights): parsed, and checked for length and sign.
"""

import math
from fractions import Fraction

Money = Fraction


class DomainError(ValueError):
    """Input violates an operation's precondition."""


def parse_money(x):
    """Accept Fraction, int, or a 'num/den' / 'num' string. A string that is
    not a rational, or has a zero denominator, raises DomainError; a float
    or any other type raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse money from {x!r}") from None
    raise TypeError(f"cannot parse money from {type(x).__name__}")


def checked_iter(xs, what: str):
    """iter(xs); an xs that is not iterable raises DomainError("<what>, got <type>")."""
    try:
        return iter(xs)
    except TypeError:
        raise DomainError(f"{what}, got {type(xs).__name__}") from None


def checked_money(xs, name: str, m=None) -> tuple:
    """The row xs as a tuple of Fractions read by `parse_money` (a float entry
    raises TypeError). A row that is not iterable, a length other than m where
    m is given, or a negative entry raises DomainError naming `name`."""
    row = tuple(map(parse_money, checked_iter(xs, f"{name} must be a row of money")))
    if m is not None and len(row) != m:
        raise DomainError(f"expected {m} {name}, got {len(row)}")
    if [x for x in row if x.numerator < 0]:  # ints compare far faster than Fractions
        raise DomainError(f"{name} must be nonnegative")
    return row


def format_money(x) -> str:
    """Canonical 'num/den' form, integers included (3 -> '3/1')."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def money_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd extended to rationals; gcd(x, 0) = x."""
    a, b = abs(Fraction(a)), abs(Fraction(b))
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def scale_to_ints(values):
    """(ints, D) with ints[k] == values[k] * D exactly, where D is the least
    common denominator of values (ints and Fractions). Scaling every value
    by the same positive D keeps every order and tie."""
    ratios = [x.as_integer_ratio() for x in values]
    D = math.lcm(1, *{d for _, d in ratios})
    return [n * (D // d) for n, d in ratios], D


def money_rows(rows, D: int) -> tuple:
    """Int rows at denominator D as a tuple of Fraction tuples."""
    return tuple(tuple(Fraction(x, D) for x in row) for row in rows)


def rescale(ints, D: int, to: int):
    """ints at denominator D re-expressed at denominator `to`, a multiple of D."""
    k = to // D
    return ints if k == 1 else [x * k for x in ints]
