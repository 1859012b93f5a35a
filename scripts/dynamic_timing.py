"""Time one build and one best-reply dynamic of the exponential instance.

Builds `build_exponential_instance(m)` from an empty path cache, runs
`run_best_reply_dynamic` on it from the path's first allocation, checks that
the run walks the whole middle-levels path (2 * C(m, m') - 1 exchanges, a
passing `dynamic_trace_audit`), and prints one JSON line with m, the
exchange count and both wall times in seconds. The library is imported from
PYTHONPATH, so alternating runs against two checkouts compare them:

    PYTHONPATH=src python scripts/dynamic_timing.py [--m 15]
"""

from __future__ import annotations

import argparse
import json
import math
import time

from sspeq import xos_dynamics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=15)
    args = ap.parse_args()
    xos_dynamics._gray_path_masks.cache_clear()
    start = time.perf_counter()
    v0, v1, oracles, init = xos_dynamics.build_exponential_instance(args.m)
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    run = xos_dynamics.run_best_reply_dynamic(v0, v1, init, oracles=oracles)
    dynamic_s = time.perf_counter() - start
    exchanges = run.trace.exchanges()
    walked = exchanges == 2 * math.comb(args.m, args.m // 2) - 1
    if not walked or not xos_dynamics.dynamic_trace_audit(run.trace)[0]:
        raise SystemExit(f"the dynamic did not walk the whole path: {exchanges} exchanges")
    print(json.dumps({"m": args.m, "exchanges": exchanges, "build_s": round(build_s, 4),
                      "dynamic_s": round(dynamic_s, 4)}))


if __name__ == "__main__":
    main()
