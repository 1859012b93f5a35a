"""Time one searcher against the m = 43 odd-graph adversary.

Runs `SEARCHERS[searcher]` against a fresh `OddGraphAdversary(43, seed=seed)`
with budget `query_lower_bound(43)` = 1313, checks that it spent exactly
that many queries and that `adversary_audit` is clean, and prints one JSON
line with the searcher, the seed, the transcript length, the answers made
inside demand queries (`pivots`: the transcript beyond the searcher's own
steps), the colored vertex count (`colored`), the summed `materialized`
count and the search's wall time in seconds. At m = 43 the `bestreply`
searcher makes one pivot per demand query, so `pivots` and `colored` show
how many bumps each query stores. A second, counted pass of the same seed
wraps `OddGraphAdversary._clear` and prints its calls (`clear_tests`) and
the blocked masks their lookups find (`clear_candidates`, counted once per
lookup: what a call tests when none is near, an upper bound when one is),
so a change to the index shows its work without timing noise; the timed
pass runs unwrapped. The library is
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


def counted_clear(adv, counts):
    """Wrap `adv._clear` so that each call adds 1 to counts[0] and the
    lengths of the entries its lookups read to counts[1]."""
    clear = adv._clear

    def counted(v):
        comp = adv.full_mask ^ v
        counts[0] += 1
        counts[1] += sum(len(table.get(v & key, ())) for key, table in adv._pairs)
        counts[1] += sum(len(table.get(comp & key, ())) for key, table in adv._comp_pairs)
        return clear(v)

    adv._clear = counted


def run(searcher, seed, counts=None):
    """(adversary, search result, search seconds) of one checked search."""
    budget = query_lower_bound(M)
    adv = OddGraphAdversary(M, seed=seed)
    if counts is not None:
        counted_clear(adv, counts)
    start = time.perf_counter()
    result = SEARCHERS[searcher](adv, budget)
    search_s = time.perf_counter() - start
    if result.queries != budget or adv.num_queries() != budget:
        raise SystemExit(f"the searcher made {result.queries} queries, not {budget}")
    ok, problems = adversary_audit(adv)
    if not ok:
        raise SystemExit(f"the adversary audit failed: {problems[:3]}")
    return adv, result, search_s


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--searcher", choices=sorted(SEARCHERS), default="hill")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    adv, result, search_s = run(args.searcher, args.seed)
    counts = [0, 0]
    counted_adv, _, _ = run(args.searcher, args.seed, counts)
    if counted_adv.transcript != adv.transcript:
        raise SystemExit("the counted pass answered differently")
    print(json.dumps({"searcher": args.searcher, "seed": args.seed, "answers": len(adv.transcript),
                      "pivots": len(adv.transcript) - result.steps, "colored": len(adv.colored),
                      "materialized": sum(s["materialized"] for s in adv.stats),
                      "clear_tests": counts[0], "clear_candidates": counts[1],
                      "search_s": round(search_s, 4)}))


if __name__ == "__main__":
    main()
