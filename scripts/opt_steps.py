"""Count the middle bidder's submask steps in `optimal_welfare` per op.

Builds the certify workload's instances (n = 3: two coverage bidders and a
submodular table, m = 10 by default) and, for each, sums 2^|R| over the
walks of the middle bidder's table at a mask R, repeats included (the
winning R is walked again to recover the middle bidder's pick). Walking
every mask once is 3^m steps. Also counts the distinct masks walked, all
steps walked (every submask walk and m * 2^m per subset max) next to the
bound the DP is capped by before it starts, and times each call.

    PYTHONPATH=src python scripts/opt_steps.py [--seed 31] [--instances 30] [--m 10]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import gen_coverage, gen_submodular_table  # noqa: E402

from sspeq import auction  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--instances", type=int, default=30)
    ap.add_argument("--m", type=int, default=10)
    args = ap.parse_args()
    walk, subset_max = auction._best_split, auction._subset_max
    seen, maxed = [], []

    def counted(prev, vals, mask):
        seen.append((id(vals), mask))
        return walk(prev, vals, mask)

    def counted_max(row):
        maxed.append(args.m * len(row))
        return subset_max(row)

    auction._best_split, auction._subset_max = counted, counted_max
    steps, masks, ms, total = [], [], [], []
    for r in range(args.instances):
        rng = random.Random(f"certify/{args.seed}/{r}")
        vals = [gen_coverage(rng, args.m), gen_coverage(rng, args.m), gen_submodular_table(rng, args.m)]
        seen.clear()
        maxed.clear()
        start = time.perf_counter()
        auction.optimal_welfare(vals)
        ms.append(1000 * (time.perf_counter() - start))
        # the middle table is the one the walks use most; bidder 0 is walked
        # once, at the end, to recover its pick
        ids = [i for i, _ in seen]
        middle = max(set(ids), key=ids.count)
        walked = [mask for i, mask in seen if i == middle]
        masks.append(len(set(walked)))
        steps.append(sum(1 << mask.bit_count() for mask in walked))
        total.append(sum(1 << mask.bit_count() for _, mask in seen) + sum(maxed))
    auction._best_split, auction._subset_max = walk, subset_max
    print(json.dumps({
        "seed": args.seed, "m": args.m, "instances": args.instances,
        "full_walk_steps": 3 ** args.m,
        "middle_steps_per_op": sum(steps) / len(steps),
        "middle_masks_per_op": sum(masks) / len(masks),
        "masks": 1 << args.m,
        "all_steps_per_op": sum(total) / len(total),
        "step_bound": auction._opt_step_bound(3, args.m),
        "optimal_welfare_ms_mean": round(sum(ms) / len(ms), 3),
    }))


if __name__ == "__main__":
    main()
