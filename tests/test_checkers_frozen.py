"""Every exact class checker's output, frozen by one digest.

The digest was recorded from the `Fraction` implementation of the checkers
(per-mask evaluation, sympy for XOS) on the same seeded valuations, members
and non-members alike. A change in any verdict, witness key, first violation
or witness value changes it.
"""

import hashlib
from fractions import Fraction

from conftest import (
    random_budget_additive,
    random_submodular_table,
    random_table,
    random_weights,
    seeded,
)
from sspeq.stealing import granularity_steal_bound, marginal_diversity
from sspeq.valuations import (
    VERIFY_CAP,
    DomainError,
    TableValuation,
    XOSExplicitValuation,
    bundle_of,
    check_clause,
    verify_class,
)

CHECKER_DIGEST = "0f4de7840888fd3589021cf647e0bfc9ec0070bfde02103f22809e36ecf3c62a"


def canon(x) -> str:
    """One text for equal outputs; `str` writes Fraction and sympy's Rational alike."""
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{canon(x[k])}" for k in sorted(x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(y) for y in x) + "]"
    return str(x)


def _valuations(rng, count):
    """(label, valuation) pairs: tables (some not monotone), explicit XOS,
    budget-additive and submodular tables, with m from 1 to 5."""
    out = []
    for i in range(count):
        m = rng.randint(1, 5)
        kind = i % 5
        if kind == 0:
            values = random_table(rng, m, monotone=False)
            try:
                TableValuation(m, values)
                label = "table-ok"
            except DomainError as exc:
                label = f"table-rejected {exc}"
            out.append((label, TableValuation(m, values, validate=False)))
        elif kind == 1:
            out.append(("monotone", TableValuation(m, random_table(rng, m))))
        elif kind == 2:
            clauses = [random_weights(rng, m) for _ in range(rng.randint(1, 3))]
            out.append(("xos", XOSExplicitValuation(m, clauses)))
        elif kind == 3:
            out.append(("budget", random_budget_additive(rng, m)))
        else:
            out.append(("submodular", random_submodular_table(rng, m)))
    return out


def _clauses(rng, v, S):
    """The valuation's own clause for S plus three that may break a rule."""
    own = v.xos_clause(S)
    shaken = {j: w + Fraction(rng.randint(-1, 1), rng.randint(1, 4)) for j, w in own.items()}
    spread = dict(zip(sorted(S), random_weights(rng, len(S))))
    outside = {**own, rng.randrange(v.m): Fraction(1)}
    return (own, shaken, spread, outside)


def checker_lines(count=300, seed=2024):
    rng = seeded(seed)
    lines = []
    prev = None
    for label, v in _valuations(rng, count):
        lines.append(f"{label} m={v.m}")
        for cls in VERIFY_CAP:
            lines.append(f"{cls} {canon(verify_class(v, cls))}")
        for mask in sorted(rng.sample(range(1 << v.m), min(4, 1 << v.m))):
            S = bundle_of(mask)
            for clause in _clauses(rng, v, S):
                for exhaustive in (True, False):
                    got = check_clause(v, S, clause, exhaustive=exhaustive)
                    lines.append(f"clause {sorted(S)} {canon(clause)} {canon(got)}")
        lines.append(f"diversity {[marginal_diversity(v, j) for j in range(v.m)]}")
        lines.append(f"granularity {canon(granularity_steal_bound([v]))}")
        if prev is not None and prev.m == v.m:
            lines.append(f"granularity2 {canon(granularity_steal_bound([prev, v]))}")
        prev = v
    return lines


def test_checker_outputs_match_the_frozen_digest():
    text = "\n".join(checker_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == CHECKER_DIGEST
