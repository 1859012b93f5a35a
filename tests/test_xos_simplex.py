"""The exact simplex behind `verify_class(v, "xos")`, against sympy's linprog.

sympy is a test-only reference here; the library does not import it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_submodular_table, random_table, random_weights, seeded
from sspeq.valuations import TableValuation, XOSExplicitValuation, verify_class

sympy = pytest.importorskip("sympy")
linprog = pytest.importorskip("sympy.solvers.simplex").linprog


def sympy_xos(v):
    """The XOS check as one sympy linprog per bundle S: maximize the sum of
    a >= 0 subject to a(T) <= v(T) for every nonempty T within S."""
    vals = [v._value_mask(t) for t in range(1 << v.m)]
    for smask in range(1, 1 << v.m):
        items = [j for j in range(v.m) if smask >> j & 1]
        subs = [t for t in range(1, smask + 1) if t & smask == t]
        A = [[t >> j & 1 for j in items] for t in subs]
        b = [sympy.Rational(vals[t].numerator, vals[t].denominator) for t in subs]
        opt, _ = linprog([-1] * len(items), A=A, b=b)
        best = Fraction(int(-opt.p), int(opt.q))
        if best != vals[smask]:
            return False, {"S": items, "best": best, "value": vals[smask]}
    return True, None


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_xos_check_matches_sympy_linprog(seed):
    rng = seeded(seed)
    m = rng.randint(1, 5)
    explicit = XOSExplicitValuation(m, [random_weights(rng, m) for _ in range(rng.randint(1, 4))])
    if rng.random() < 0.6:
        table = TableValuation(m, random_table(rng, m))
    else:
        table = random_submodular_table(rng, m)
    assert verify_class(explicit, "xos") == (True, None)
    for v in (explicit, table):
        got = verify_class(v, "xos")
        assert got == sympy_xos(v)
        if not got[0]:
            assert type(got[1]["best"]) is Fraction
