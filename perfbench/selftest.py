"""Self-test of the benchmark at tiny sizes with a fixed seed.

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run must both be correct and
reproduce the digest recorded below, the traced run must report the same
exact counts as the untraced one, and every library name the traced run
wrapped must be the original object again afterwards. Exits 1 on any
failure. A change to the library that alters any output changes a digest
and fails here.
"""

from __future__ import annotations

import sys

import run

SEED = 7
DIGESTS = {
    "certify": "461a269a1302490e3dbfef4fca210b2da30b1c5476b3b40247c2087e8b616af0",
    "settle": "36ea70431138f56a1e5c196c0b14fbf834447d9a832f4035fa73c8136ed58023",
    "adversary-value": "d862994ae9c1c9ceda982dbfb7e3cc2187d50288ac6cbee40f42d60c1f2bf09c",
    "adversary-demand": "958665e9bcf36d44cba274f3817ad69e900226f2a79b2034e33639b81dc8f41d",
}


def main() -> int:
    run.load_library()
    import workloads

    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in workloads.TRACED_ATTRS]
    failures = []
    for name in workloads.TINY:
        plain, plain_details = run.run(name, SEED, 0, False, workloads.TINY)
        traced, traced_details = run.run(name, SEED, 0, True, workloads.TINY)
        checks = {
            "untraced run correct": plain["correct"] and plain["failed"] == 0,
            "traced run correct": traced["correct"] and traced["failed"] == 0,
            "recorded digest": plain_details["digest"] == DIGESTS[name],
            "traced digest": traced_details["digest"] == plain_details["digest"],
            "traced exact counts": traced_details["exact"] == plain_details["exact"],
            "names restored": all(getattr(m, a) is fn for m, a, fn in originals),
        }
        for what, ok in checks.items():
            if not ok:
                failures.append(f"{name}: {what}")
        print(f"{name}: {'ok' if all(checks.values()) else 'FAILED'} digest {plain_details['digest']}")
        for problem in plain_details["problems"] + traced_details["problems"]:
            print(f"  {problem}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
