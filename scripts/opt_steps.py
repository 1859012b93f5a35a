"""Count the middle bidder's split steps in `optimal_welfare` per op.

Builds the certify workload's instances (n = 3: two coverage bidders and a
submodular table, m = 10 by default) and, for each, counts the splits of
the middle bidder's table that were evaluated: 2^|R| for each full walk of
a mask R (the seed and the pick that recovers the middle bidder's bundle)
plus every split `_split_above` reads, and the range bounds it checks.
Walking every mask once is 3^m steps. Also counts the distinct masks
searched and all steps taken (every split evaluated and m * 2^m per run of
the lane passes, `max_passes`: bidder 0's subset max, which `_split_bound`
takes on the lanes it packs bidder 0's table into, and the bound's A and B)
next to the bound the DP is capped by before it starts. The counts
come from one pass with counting wrappers installed; the timings from a
second pass without them, each instance's call timed five times and the
fastest kept, and `optimal_welfare_ms_mean` is the mean of those.
`nash_ms_mean` times the other half of a certify op the same way:
`is_pure_nash_no_overbid` on the two profiles certify checks, the pool
start's bids and the profile `run_iterative_stealing` settles in (built
before either pass), the mean over both profiles of every instance.
`demand_ms_mean` times each bidder's exhaustive demand entry, `_demand`, in
both profiles at its rival prices, the largest bid of the other bidders on
each item, the same way.

`--family` picks the instances: `certify` (the default) as above;
`additive-tie` and `budget-tie`, three identical additive or
budget-additive bidders with weights 1 or 2, where many allocations reach
OPT and the bound ties across many t; `wide`, the certify instances with
every value times 2^64, whose subset-max and bound rows need lanes wider
than 64 bits and so run on lanes of as many 64-bit words as they need.
Each run prints one line, so families are timed side by side by running it
once per family.

    PYTHONPATH=src python scripts/opt_steps.py [--seed 31] [--instances 30] [--m 10]
        [--family certify]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import gen_coverage, gen_submodular_table  # noqa: E402

from sspeq import auction, stealing, valuations  # noqa: E402
from sspeq.valuations import (  # noqa: E402
    AdditiveValuation,
    BudgetAdditiveValuation,
    TableValuation,
)

FAMILIES = ("certify", "additive-tie", "budget-tie", "wide")


class Reads(list):
    """A table row that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def instance(family, rng, m):
    """The three bidders of one instance of `family`."""
    if family in ("additive-tie", "budget-tie"):
        weights = [Fraction(rng.randint(1, 2)) for _ in range(m)]
        if family == "additive-tie":
            return [AdditiveValuation(m, weights)] * 3
        budget = Fraction(rng.randint(1, sum(weights).numerator))
        return [BudgetAdditiveValuation(m, budget, weights)] * 3
    vals = [gen_coverage(rng, m), gen_coverage(rng, m), gen_submodular_table(rng, m)]
    if family == "wide":
        vals = [TableValuation(m, [Fraction(x << 64, D) for x in ints])
                for ints, D in (v.value_table() for v in vals)]
    return vals


def certified_profiles(vals, m):
    """(vals, bids) of the two profiles certify checks: from the pool, where
    only bidder 0 bids, its initial marginal bids; and the settled bids."""
    run = stealing.run_iterative_stealing(vals, (frozenset(range(m)),) + (frozenset(),) * 2)
    pool = (run.log.initial_prices,) + ((Fraction(0),) * m,) * 2
    return (vals, pool), (vals, run.bids)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--instances", type=int, default=30)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--family", choices=FAMILIES, default="certify")
    args = ap.parse_args()
    instances = [instance(args.family, random.Random(f"{args.family}/{args.seed}/{r}"), args.m)
                 for r in range(args.instances)]
    profiles = [profile for vals in instances for profile in certified_profiles(vals, args.m)]
    walk, search, passes = auction._best_split, auction._split_above, valuations.max_passes
    walked, searched, maxed = [], [], []

    def counted(prev, vals, mask):
        walked.append((id(vals), 1 << mask.bit_count()))
        return walk(prev, vals, mask)

    def counted_search(a, b, A, B, pR, first, R, floor):
        row, bounds = Reads(a), Reads(A)
        try:
            return search(row, b, bounds, B, pR, first, R, floor)
        finally:
            searched.append((id(a), R, row.reads, bounds.reads))

    def counted_passes(X, nbytes, size):
        maxed.append(args.m * size)
        return passes(X, nbytes, size)

    def install(split, split_above, max_passes):
        auction._best_split, auction._split_above = split, split_above
        auction.max_passes = valuations.max_passes = max_passes

    install(counted, counted_search, counted_passes)
    steps, checks, masks, total = [], [], [], []
    for vals in instances:
        walked.clear()
        searched.clear()
        maxed.clear()
        auction.optimal_welfare(vals)
        middle = searched[0][0] if searched else None
        masks.append(len({R for _, R, _, _ in searched}))
        split_reads = sum(reads for _, _, reads, _ in searched)
        steps.append(sum(n for i, n in walked if i == middle) + split_reads)
        checks.append(sum(bound_reads for _, _, _, bound_reads in searched))
        total.append(sum(n for _, n in walked) + split_reads + sum(maxed))
    install(walk, search, passes)

    def timed(call, *args):
        start = time.perf_counter()
        call(*args)
        return 1000 * (time.perf_counter() - start)

    ms = [min(timed(auction.optimal_welfare, vals) for _ in range(5)) for vals in instances]
    nash_ms = [min(timed(auction.is_pure_nash_no_overbid, *profile) for _ in range(5)) for profile in profiles]
    demands = [(v._demand, v._check_prices([max(row[j] for k, row in enumerate(bids) if k != i)
                                            for j in range(args.m)]))
               for vals, bids in profiles for i, v in enumerate(vals)]
    demand_ms = [min(timed(demand, *prices) for _ in range(5)) for demand, prices in demands]
    print(json.dumps({
        "seed": args.seed, "m": args.m, "instances": args.instances,
        "full_walk_steps": 3 ** args.m,
        "middle_steps_per_op": sum(steps) / len(steps),
        "middle_bound_checks_per_op": sum(checks) / len(checks),
        "middle_masks_per_op": sum(masks) / len(masks),
        "masks": 1 << args.m,
        "all_steps_per_op": sum(total) / len(total),
        "step_bound": auction._opt_step_bound(3, args.m),
        "optimal_welfare_ms_mean": round(sum(ms) / len(ms), 3),
        "nash_ms_mean": round(sum(nash_ms) / len(nash_ms), 3),
        "demand_ms_mean": round(sum(demand_ms) / len(demand_ms), 3),
    }))


if __name__ == "__main__":
    main()
