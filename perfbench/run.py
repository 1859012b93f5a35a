"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

With --trace 0 the run sets up several times (set-up time is the import plus
the median repetition), then runs whole rounds until the next one would end
after --seconds, and reports the end-to-end metrics. With --trace 1 it runs
the digest rounds twice, untraced and then with spans around every traced
library name, checks that both passes give the same digest and exact counts,
and reports the per-layer metrics. The last line of standard output is the
result object; the line before it holds the details (digest, exact counts,
provenance). The library is imported from src/ of this checkout only.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from functools import wraps
from pathlib import Path

from spans import Patcher, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50, 90, 95, 99)
PROBE_INTERVAL_S = 0.1
SETUP_PROBES = 5
LOCAL_SAMPLES = 3
REFERENCE_MS = 4.0

PER_LAYER = (
    ("auction.best_deviation.calls", "count"),
    ("auction.best_deviation.self_ms", "ms"),
    ("auction.check_no_overbidding.calls", "count"),
    ("auction.check_no_overbidding.self_ms", "ms"),
    ("auction.optimal_welfare.calls", "count"),
    ("auction.optimal_welfare.self_ms", "ms"),
    ("auction.is_pure_nash_no_overbid.self_ms", "ms"),
    ("valuations.value_queries", "count"),
    ("valuations.demand_queries", "count"),
    ("valuations.xos_queries", "count"),
    ("stealing.steals", "count"),
    ("stealing.run.self_ms", "ms"),
    ("stealing.compute_bids.calls", "count"),
    ("stealing.compute_bids.self_ms", "ms"),
    ("stealing.find_steal.calls", "count"),
    ("stealing.find_steal.self_ms", "ms"),
    ("stealing.value_queries_per_steal", "ratio"),
    ("topsteal.steals", "count"),
    ("topsteal.trace_nodes", "count"),
    ("topsteal.top_steal.self_ms", "ms"),
    ("topsteal.bound_fill", "ratio"),
    ("xos_dynamics.build.self_ms", "ms"),
    ("xos_dynamics.gray_path.self_ms", "ms"),
    ("xos_dynamics.dynamic.self_ms", "ms"),
    ("xos_dynamics.demand.calls", "count"),
    ("xos_dynamics.demand.self_ms", "ms"),
    ("xos_dynamics.exchanges", "count"),
    ("xos_dynamics.responses", "count"),
    ("hardness.answer.calls", "count"),
    ("hardness.answer.self_ms", "ms"),
    ("hardness.materialized", "count"),
    ("hardness.demand_query.calls", "count"),
    ("hardness.demand_query.self_ms", "ms"),
    ("hardness.view.calls", "count"),
    ("hardness.view.self_ms", "ms"),
    ("hardness.sparse_demand_oracle.calls", "count"),
    ("hardness.sparse_demand_oracle.self_ms", "ms"),
    ("hardness.demand_pivots", "count"),
    ("hardness.pivot_ratio", "ratio"),
    ("trace.overhead", "ratio"),
)


def load_library() -> float:
    """Import sspeq from src/ of this checkout; return the import time in s."""
    src = ROOT / "src"
    if not (src / "sspeq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the library is missing: no {src / 'sspeq'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import sspeq
    import workloads  # noqa: F401  (imports the sspeq modules it drives)

    import_s = time.perf_counter() - t0
    if Path(sspeq.__file__).resolve().parent != src / "sspeq":
        raise SystemExit(f"perfbench: sspeq was imported from {sspeq.__file__}, not {src}")
    return import_s


def _reference_chunk():
    """A fixed piece of the library's kind of work: rational arithmetic and
    dictionaries keyed by frozensets."""
    table = {}
    total = Fraction(0)
    for i in range(1, 1100):
        x = Fraction(i % 7 + 1, i % 11 + 1)
        total += x
        table[frozenset((i, i % 13))] = x
    return total, max(table.values())


class SpeedProbe:
    """Times the reference chunk every PROBE_INTERVAL_S, between ops.

    The host's speed drifts: on a shared 2-CPU x86_64 machine one fixed
    piece of Fraction work took from 70 to 154 ms within a minute, with
    process CPU time tracking wall time, so the drift comes from the host.
    Samples taken throughout a phase give that phase's mean slowness, which
    scales its timings to a host running at REFERENCE_MS per chunk.
    """

    def __init__(self):
        self.samples = []
        self.times = []
        self.spent = 0.0
        self._last = float("-inf")

    def tick(self, force: bool = False):
        now = time.perf_counter()
        if now - self._last < PROBE_INTERVAL_S and not force:
            return
        _reference_chunk()
        self._last = time.perf_counter()
        self.times.append((now + self._last) / 2)
        self.samples.append(1000 * (self._last - now))
        self.spent += self._last - now

    def slowness(self, start: int = 0, stop=None) -> float:
        """Mean chunk time over samples[start:stop] relative to REFERENCE_MS."""
        window = self.samples[start:stop]
        return statistics.fmean(window) / REFERENCE_MS if window else 1.0

    def slowness_at(self, t: float) -> float:
        """Mean of the LOCAL_SAMPLES samples on each side of time t."""
        i = bisect.bisect(self.times, t)
        return self.slowness(max(i - LOCAL_SAMPLES, 0), i + LOCAL_SAMPLES)


class _Clock:
    seconds = 0.0


def _clocked(fn, latencies, session):
    @wraps(fn)
    def clocked(*args, **kwargs):
        session.tick()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            latencies.append(1000 * (t1 - t0))
            session.op_log.append((t1, 1000 * (t1 - t0)))

    return clocked


class Session:
    """The patches of one pass: op clocks always, spans when traced."""

    def __init__(self, tracer: Tracer | None = None):
        import workloads

        self.tracer = tracer
        self.probe = SpeedProbe()
        self.op_log = []  # (end time, ms) of every op, for local scaling
        self.patcher = Patcher()
        self.unrestored = []
        if tracer is not None:
            for module, attr, name in workloads.TRACED_ATTRS:
                self.patcher.replace(module, attr, lambda fn, name=name: tracer.wrap(name, fn))

    def trace_method(self, obj, attr: str, name: str):
        if self.tracer is not None:
            self.patcher.replace(obj, attr, lambda fn: self.tracer.wrap(name, fn))

    def time_method(self, obj, attr: str, latencies: list):
        self.patcher.replace(obj, attr, lambda fn: _clocked(fn, latencies, self))

    def tick(self):
        self.probe.tick()

    @contextlib.contextmanager
    def timed(self, op: bool = False):
        """Wall time of the block, less the probe's time inside it; an op
        block also goes into the op log."""
        clock = _Clock()
        spent, t0 = self.probe.spent, time.perf_counter()
        try:
            yield clock
        finally:
            t1 = time.perf_counter()
            clock.seconds = t1 - t0 - (self.probe.spent - spent)
            if op:
                self.op_log.append((t1, 1000 * clock.seconds))

    @contextlib.contextmanager
    def quiet(self):
        """Checks run here, so that they never appear in the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    @contextlib.contextmanager
    def round_scope(self):
        """Undo the patches a round made on its own objects when it ends, so
        that the patch list does not keep them alive."""
        depth = self.patcher.depth()
        try:
            yield
        finally:
            self.unrestored += self.patcher.restore(depth)

    def close(self) -> list:
        return self.unrestored + self.patcher.restore()


def safe_round(wl, r: int, session):
    import workloads

    try:
        with session.round_scope():
            return wl.run_round(r, session)
    except Exception as exc:  # a failed op is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return workloads.RoundResult(
            attempted=wl.ops_per_round, failed=wl.ops_per_round,
            problems=[f"round {r} raised {type(exc).__name__}: {exc}"],
        )


def measure(wl, session, seconds: float) -> list:
    """Whole rounds: the digest rounds always, then more while the next
    round (at the mean round time so far) still ends within `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        if len(rounds) >= wl.digest_rounds:
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                return rounds
        session.tick()
        rounds.append(safe_round(wl, len(rounds), session))
        if len(rounds) > wl.digest_rounds:
            rounds[-1].records = []  # outside the digest


def summarize(setup, rounds, digest_rounds: int):
    """Digest and exact counts over the set-up check and the digest rounds."""
    h = hashlib.sha256()
    exact = Counter(setup.exact)
    for res in [setup] + rounds[:digest_rounds]:
        for line in res.records:
            h.update(line.encode() + b"\n")
    for res in rounds[:digest_rounds]:
        exact.update(res.exact)
    return h.hexdigest(), {k: exact[k] for k in sorted(exact)}


def throughput(rounds) -> tuple:
    ops = sum(len(res.op_ms) for res in rounds)
    timed = sum(res.timed_s for res in rounds)
    return ops, (ops / timed if timed > 0 else 0.0)


def _beyond(n: int, pct: int) -> int:
    return n - 1 - min(n - 1, n * pct // 100)


def tail(op_ms: list) -> tuple:
    """(value, percentile): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND ops beyond it (the median when none has). A fixed ladder keeps
    the percentile the same from run to run while the op count moves a little."""
    ordered = sorted(op_ms)
    n = len(ordered)
    if not n:
        return 0.0, 50
    pct = max(p for p in TAIL_PERCENTILES if p == 50 or _beyond(n, p) >= TAIL_BEYOND)
    return ordered[n - 1 - _beyond(n, pct)], pct


def git_commit():
    """The commit of this checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def run_setup(wl, session, reps: int):
    times, checks = [], []
    for _ in range(SETUP_PROBES):
        session.probe.tick(force=True)
    for _ in range(reps):
        session.tick()
        t0 = time.perf_counter()
        state = wl.setup(session)
        times.append(time.perf_counter() - t0)
        session.tick()
        checks.append(wl.check_setup(state, session))
    problems = list(checks[0].problems)
    if any(c.records != checks[0].records for c in checks[1:]):
        problems.append("set-up repetitions gave different outputs")
    checks[0].problems = problems
    for _ in range(SETUP_PROBES):
        session.probe.tick(force=True)
    return times, checks[0]


def timed_run(make, seed: int, seconds: float, import_s: float):
    wl = make(seed)
    session = Session()
    setup_times, setup = run_setup(wl, session, SETUP_REPS)
    setup_samples = len(session.probe.samples)
    rounds = measure(wl, session, seconds)
    session.tick()  # a sample after the last ops, for their local scaling
    unrestored = session.close()
    digest, exact = summarize(setup, rounds, wl.digest_rounds)
    attempted = sum(res.attempted for res in rounds)
    failed = sum(res.failed for res in rounds)
    op_ms = [x for res in rounds for x in res.op_ms]
    ops, ops_per_s = throughput(rounds)
    scaled = [ms / session.probe.slowness_at(t) for t, ms in session.op_log]
    tail_ms, tail_pct = tail(scaled)
    problems = setup.problems + [p for res in rounds for p in res.problems]
    problems += [f"not restored: {name}" for name in unrestored]
    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": ops_per_s,
        "op_ms_p50": statistics.median(op_ms) if op_ms else 0.0,
        "op_ms_tail": tail(op_ms)[0],
    }
    setup_slow = session.probe.slowness(0, setup_samples)
    run_slow = session.probe.slowness(setup_samples)
    metrics = {
        "setup_s": (raw["setup_s"] / setup_slow, "s"),
        "ops_per_s": (raw["ops_per_s"] * run_slow, "1/s"),
        "op_ms_p50": (statistics.median(scaled) if scaled else 0.0, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "rounds": len(rounds),
        "digest_rounds": wl.digest_rounds,
        "ops": ops,
        "op_ms_tail_percentile": tail_pct,
        "ops_beyond_tail": _beyond(ops, tail_pct) if ops else 0,
        "failed_frac": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
        "raw": raw,
        "slowness": {"setup": setup_slow, "run": run_slow, "samples": len(session.probe.samples),
                     "median_ms": statistics.median(session.probe.samples)},
        "setup": {"import_s": import_s, "reps_s": setup_times},
        "digest": digest,
        "exact": exact,
        "problems": problems[:20],
    }
    return attempted, failed, not problems and failed == 0, metrics, details


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def traced_run(make, seed: int, import_s: float, trace_file: Path):
    passes = []
    tracer = Tracer()
    for pass_tracer in (None, tracer):
        session = Session(pass_tracer)
        wl = make(seed)
        _, setup = run_setup(wl, session, 1)
        rounds = [safe_round(wl, r, session) for r in range(wl.digest_rounds)]
        unrestored = session.close()
        digest, exact = summarize(setup, rounds, wl.digest_rounds)
        # throughput scaled to host speed, so that the overhead ratio is not host drift
        passes.append((setup, rounds, unrestored, digest, exact,
                       throughput(rounds)[1] * session.probe.slowness()))
    ((setup_u, rounds_u, unres_u, digest_u, exact_u, ops_per_s_u),
     (setup, rounds, unres_t, digest, exact, ops_per_s_t)) = passes
    problems = setup_u.problems + setup.problems + [p for res in rounds_u + rounds for p in res.problems]
    problems += [f"not restored: {name}" for name in unres_u + unres_t]
    if digest != digest_u:
        problems.append("the traced pass changed the digest")
    if exact != exact_u:
        problems.append(f"the traced pass changed exact counts: {exact_u} -> {exact}")
    nested, pivots = tracer.count_nested("hardness.answer", "hardness.demand_query"), exact.get("hardness.demand_pivots", 0)
    if nested != pivots:
        problems.append(f"{nested} answer spans inside demand_query, {pivots} pivots")

    spans = tracer.summary()
    values = dict(exact)
    for name, (calls, self_ms) in spans.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = self_ms
    count = exact.get
    values["stealing.value_queries_per_steal"] = _ratio(count("stealing.value_queries", 0), count("stealing.steals", 0))
    values["topsteal.bound_fill"] = _ratio(count("topsteal.steals", 0), count("topsteal.bound", 0))
    values["hardness.pivot_ratio"] = _ratio(count("hardness.demand_pivots", 0), count("hardness.demand_queries", 0))
    values["trace.overhead"] = _ratio(ops_per_s_t, ops_per_s_u)
    metrics = {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}

    trace_file.parent.mkdir(exist_ok=True)
    tracer.write(trace_file)
    attempted = sum(res.attempted for res in rounds)
    failed = sum(res.failed for res in rounds)
    details = {
        "rounds": len(rounds),
        "ops": sum(len(res.op_ms) for res in rounds),
        "untraced_ops_per_s": ops_per_s_u,
        "traced_ops_per_s": ops_per_s_t,
        "trace_overhead": values["trace.overhead"],
        "import_s": import_s,
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "digest": digest,
        "exact": exact,
        "problems": problems[:20],
    }
    return attempted, failed, not problems and failed == 0, metrics, details


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict, import_s: float = 0.0):
    """Run one workload; return (result object, details object)."""
    make = sizes[workload]
    if trace:
        trace_file = ROOT / "perfbench" / "out" / f"trace-{workload}-seed{seed}.jsonl"
        attempted, failed, correct, metrics, details = traced_run(make, seed, import_s, trace_file)
    else:
        attempted, failed, correct, metrics, details = timed_run(make, seed, seconds, import_s)
    details = {**provenance(workload, seed), "trace": int(trace), "seconds": seconds, **details}
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = load_library()
    import workloads

    if args.workload not in workloads.FULL:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.FULL)}")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, import_s)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
