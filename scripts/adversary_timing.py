"""Time one searcher against the m = 43 odd-graph adversary.

Runs `SEARCHERS[searcher]` against a fresh `OddGraphAdversary(43, seed=seed)`
with budget `query_lower_bound(43)` = 1313, checks that it spent exactly
that many queries and that `adversary_audit` is clean, and prints one JSON
line with the searcher, the seed, the transcript length, the answers made
inside demand queries (`pivots`: the transcript beyond the searcher's own
steps), the colored vertex count (`colored`), the summed `materialized`
count and the search's wall time in seconds. At m = 43 the `bestreply`
searcher makes one pivot per demand query, so `pivots` and `colored` show
how many bumps each query stores. The library is
imported from PYTHONPATH, so alternating runs against two checkouts compare
them one searcher at a time:

    PYTHONPATH=src python scripts/adversary_timing.py [--searcher hill] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import time

from sspeq.hardness import SEARCHERS, OddGraphAdversary, adversary_audit, query_lower_bound

M = 43


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--searcher", choices=sorted(SEARCHERS), default="hill")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    budget = query_lower_bound(M)
    adv = OddGraphAdversary(M, seed=args.seed)
    start = time.perf_counter()
    result = SEARCHERS[args.searcher](adv, budget)
    search_s = time.perf_counter() - start
    if result.queries != budget or adv.num_queries() != budget:
        raise SystemExit(f"the searcher made {result.queries} queries, not {budget}")
    ok, problems = adversary_audit(adv)
    if not ok:
        raise SystemExit(f"the adversary audit failed: {problems[:3]}")
    print(json.dumps({"searcher": args.searcher, "seed": args.seed, "answers": len(adv.transcript),
                      "pivots": len(adv.transcript) - result.steps, "colored": len(adv.colored),
                      "materialized": sum(s["materialized"] for s in adv.stats),
                      "search_s": round(search_s, 4)}))


if __name__ == "__main__":
    main()
