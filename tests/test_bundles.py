"""Every face that takes a bundle, an item or an item order checks it through
`checked_mask`: an item that is not an int in 0..m-1 raises DomainError, and
nothing downstream sees it. A count (a bidder index, t, g or h) goes through
`checked_count` the same way. The CLI cases run in a subprocess with a
timeout, so a hang fails the test instead of stalling the suite."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sspeq.auction import (
    best_deviation,
    check_allocation,
    greedy_allocation,
    is_pure_nash_no_overbid,
    optimal_welfare,
    welfare,
)
from sspeq.hardness import OddGraphAdversary, SensitiveValuation, j_local_max_certificate
from sspeq.reductions import (
    SetPairSystem,
    SetPairValuation,
    WeightedGraph,
    equilibrium_witness,
    local_max_check,
    verify_set_pair_system,
)
from sspeq.stealing import (
    budget_additive_steal_bound,
    classify_loose_tight,
    compute_bids,
    find_steal,
    granularity_steal_bound,
    marginal_diversity,
    pseudo_poly_steal_bound,
    run_budget_additive_stealing,
    run_iterative_stealing,
)
from sspeq.topsteal import ErasedValuation, MarginalValuation, competitor_info, steal_count_bound, top_steal
from sspeq.valuations import AdditiveValuation, CoverageValuation, DomainError, TableValuation, checked_mask
from sspeq.xos_dynamics import build_exponential_instance

ROOT = Path(__file__).resolve().parents[1]


def additive():
    return AdditiveValuation(3, (1, 2, 3))


def sensitive():
    return SensitiveValuation(9, g=1, h=2)


# an 8-item set-pair system whose first pair holds item -1
NEGATIVE_PAIR = SetPairSystem(8, [(frozenset({-1, 0}), frozenset({2, 3}))])


REJECTED = {
    "allocation-float": lambda: check_allocation([{1.0}, {0}], 2, 3),
    "erased-past-m": lambda: ErasedValuation(additive(), {7}),
    "erased-negative": lambda: ErasedValuation(additive(), {-1}),
    "value-float": lambda: additive().value({1.0}),
    "marginal-float": lambda: additive().marginal(1.0, ()),
    "marginal-valuation-float": lambda: MarginalValuation(additive(), 1.0),
    "competitor-float": lambda: competitor_info([additive()], [1.0]),
    "answer-float": lambda: OddGraphAdversary(9, g=1, h=2).answer({0, 1.0, 2, 3, 4}),
    "value-query-float": lambda: OddGraphAdversary(9, g=1, h=2).value_query({0, 1.0, 2, 3, 4}),
    "order-float": lambda: compute_bids(
        [additive(), additive()], ({0}, {1, 2}), [[0, 1.0, 2], [1, 2, 0]]
    ),
    "coverage-float": lambda: CoverageValuation(3, [(0, 1.0, 1)]),
    "sensitive-clause-float": lambda: sensitive().sensitive_clause({1.0}),
    "bump-negative-item": lambda: sensitive().add_bump({-1, 0, 1, 2, 3}, Fraction(1, 8)),
    "bump-negative-mask": lambda: sensitive().add_bump(-31, Fraction(1, 8)),
    "local-max-float": lambda: j_local_max_certificate(sensitive(), range(5), 1.0),
    "diversity-float": lambda: marginal_diversity(additive(), 1.0),
    "graph-float": lambda: WeightedGraph(3, [(0, 1.0, 1)]),
    "cut-float": lambda: WeightedGraph(3, [(0, 1, 1)]).cut_weight({1.0}),
    "setpair-check-negative": lambda: verify_set_pair_system(NEGATIVE_PAIR),
    "setpair-valuation-negative": lambda: SetPairValuation(NEGATIVE_PAIR, (1,), 0),
    "witness-negative": lambda: equilibrium_witness(NEGATIVE_PAIR, (1,), (1,), 0),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_a_bad_bundle_item_raises_domain_error(case):
    with pytest.raises(DomainError):
        REJECTED[case]()


@pytest.mark.parametrize("S", [{1.0}, {"a"}, {-1}, {3}, [0, None], 5, "01"])
def test_checked_mask_names_the_range(S):
    with pytest.raises(DomainError, match=r"not within 0\.\.2"):
        checked_mask(S, 3)


COUNTS = {
    "top-steal-t": lambda: top_steal([additive(), additive()], [{0, 1, 2}, set()], t=2.5),
    "sensitive-g": lambda: SensitiveValuation(9, g=1.5, h=2),
    "sensitive-h": lambda: SensitiveValuation(9, g=1, h="2"),
    "deviation-bidder": lambda: best_deviation([additive(), additive()], 1.0, [[0] * 3] * 2),
    "steal-count-m": lambda: steal_count_bound(2.5, 3),
    "exponential-m": lambda: build_exponential_instance(3.0),
    "budget-bound-n": lambda: budget_additive_steal_bound("a", 1),
}


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_a_count_that_is_not_an_int_raises_domain_error(case):
    with pytest.raises(DomainError, match="must be an int, got"):
        COUNTS[case]()


NOT_A_LIST = {
    "table-values": lambda: TableValuation(2, 5),
    "opt-bidders": lambda: optimal_welfare(5),
    "greedy-bidders": lambda: greedy_allocation(5),
    "steal-bound-bidders": lambda: pseudo_poly_steal_bound(5),
    "welfare-bidders": lambda: welfare(5, [{0}]),
    "find-steal-bidders": lambda: find_steal(5, [{0}], [[0]]),
    "local-max-bidders": lambda: local_max_check(5, [{0}]),
    "budget-stealing-bidders": lambda: run_budget_additive_stealing(5, []),
    "loose-tight-bidders": lambda: classify_loose_tight(5, [{0}], [[0]]),
    "granularity-bidders": lambda: granularity_steal_bound(5),
    "welfare-allocation": lambda: welfare([additive()], None),
    "stealing-allocation": lambda: run_iterative_stealing([additive()], 5),
    "nash-allocation": lambda: is_pure_nash_no_overbid([additive()], [[0] * 3], alloc=5),
    "bids-orders": lambda: compute_bids([additive()], [{0, 1, 2}], 5),
}


@pytest.mark.parametrize("case", sorted(NOT_A_LIST))
def test_a_list_that_is_not_iterable_raises_domain_error(case):
    # the bidder list through `item_count`, an allocation through
    # `allocation_masks`, table values and item orders through `checked_iter`
    with pytest.raises(DomainError, match=", got (int|NoneType)$"):
        NOT_A_LIST[case]()


def test_checked_mask_takes_any_iterable_of_ints():
    assert checked_mask([2, 0, 2], 3) == 0b101
    assert checked_mask(iter(()), 3) == 0
    assert checked_mask((True,), 3) == 0b10


def test_a_stale_sensitive_oracle_raises_instead_of_flooring():
    # the marginal valuation holds the base oracle at its old E = 2^13,
    # which k = 1/5 does not divide; the true marginal would be 29/20
    base = SensitiveValuation(9, g=1, h=4)
    mv = MarginalValuation(base, 8)
    base.add_bump(0b11111, Fraction(1, 5))
    with pytest.raises(DomainError, match="stale"):
        mv.value({0, 1, 2, 3, 4})


def instance_with(allocation=None, valuations=None, m=3, bids=None):
    return {
        "n": 2,
        "m": m,
        "valuations": valuations or [
            {"kind": "additive", "m": m, "items": ["1/1", "2/1", "3/1"]},
            {"kind": "additive", "m": m, "items": ["3/1", "2/1", "1/1"]},
        ],
        "allocation": allocation,
        "bids": bids or [["0/1"] * m, ["1/1"] * m],
    }


BAD_FILES = {
    "allocation-float": instance_with([[1.0], [0, 2]]),
    "allocation-negative": instance_with([[-1], [0, 2]]),
    "allocation-string": instance_with([["a"], [0, 2]]),
    "allocation-past-m": instance_with([[3], [0, 2]]),
    "kmap-negative": instance_with(valuations=[
        {"kind": "sensitive", "m": 9, "g": 1, "h": 2, "k_map": [[[-1, 0, 1, 2, 3], "1/8"]]},
        {"kind": "sensitive", "m": 9, "g": 1, "h": 2},
    ], m=9),
    "valuation-null": instance_with(valuations=[None, None]),
    "bids-negative": instance_with(bids=[["0/1"] * 3, ["1/1", "-1/1", "0/1"]]),
    "bids-not-a-row": instance_with(bids=[["0/1"] * 3, 5]),
    "bids-too-wide": instance_with(bids=[["0/1"] * 4, ["1/1"] * 4]),
}
COMMANDS = {
    "steal": ["steal", "--init", "instance", "--instance"],
    "topsteal": ["topsteal", "--init", "instance", "--instance"],
    "verify": ["verify", "--instance"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_a_bad_bundle_in_a_file_exits_2_with_one_error_line(case, command, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(BAD_FILES[case]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sspeq.cli", *COMMANDS[command], str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot load {path}: ") and proc.stderr.count("\n") == 1, proc.stderr
