"""Command line interface: instance generation, algorithm runs, verification,
and reports. Rationals serialize as "num/den" and reports are deterministic
under a fixed seed (wall times excluded)."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

from .money import format_money
from .valuations import (
    CapabilityError,
    ConstructionError,
    DomainError,
    VERIFY_CAP,
    TableValuation,
    BudgetAdditiveValuation,
    CoverageValuation,
    valuation_from_json,
    verify_class,
)
from .auction import (
    check_allocation,
    check_bids,
    greedy_allocation,
    is_pure_nash_no_overbid,
    is_traditional,
    optimal_welfare,
    resolve,
    welfare,
)
from .stealing import (
    ORDERING_POLICIES,
    StealCapExceeded,
    budget_additive_steal_bound,
    run_budget_additive_stealing,
    run_iterative_stealing,
)
from .topsteal import TopStealDiagnostic, steal_count_bound, top_steal
from .xos_dynamics import (
    build_exponential_instance,
    dynamic_trace_audit,
    run_best_reply_dynamic,
)
from .hardness import (
    LITERAL_G,
    LITERAL_H,
    SEARCHERS,
    OddGraphAdversary,
    SensitiveValuation,
    adversary_audit,
    isoperimetric_check,
    query_lower_bound,
)
from .reductions import (
    SetPairSystem,
    SetPairValuation,
    WeightedGraph,
    build_good_set_pair_system,
    local_max_check,
    maxcut_valuation,
    verify_set_pair_system,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CAPABILITY = 2

FAMILIES = (
    "table-submodular",
    "budget-additive",
    "coverage",
    "setpair",
    "sensitive",
    "gray-exponential",
)


# -- serialization helpers -----------------------------------------------------


def _jsonable(x):
    if isinstance(x, Fraction):
        return format_money(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (frozenset, set)):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _ledgers(valuations):
    return [v.ledger.snapshot() for v in valuations]


def _timed(fn, *args, **kwargs):
    """fn's result and its wall time in ms."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, round(1000 * (time.perf_counter() - t0), 3)


def _emit(report, args, trace_rows=None):
    if getattr(args, "trace_out", None) and trace_rows is not None:
        with open(args.trace_out, "w") as fh:
            for row in trace_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    if args.format == "csv":
        buf = io.StringIO()
        keys = sorted(report)
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow(
            [
                v if isinstance(v, (str, int, float)) else json.dumps(v, sort_keys=True)
                for v in (report[k] for k in keys)
            ]
        )
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _loading(path):
    """Raise what a missing or malformed input file throws (an unreadable
    file, bad JSON, a missing key or entry, a value of the wrong type, a
    malformed rational or any other DomainError) as a DomainError naming
    the file."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"cannot load {path}: {exc}") from None
    except (LookupError, TypeError, ValueError, ZeroDivisionError, OSError) as exc:
        raise DomainError(f"cannot load {path}: {type(exc).__name__}: {exc}") from None


def _load_json(path):
    with _loading(path), open(path) as fh:
        return json.load(fh)


def _load_instance(path):
    d = _load_json(path)
    with _loading(path):
        vals = tuple(valuation_from_json(v) for v in d["valuations"])
        if len(vals) != d["n"] or any(v.m != d["m"] for v in vals):
            raise DomainError("instance header disagrees with its valuations")
        if not vals:
            raise DomainError("the instance has no valuations")
        alloc = None
        if d.get("allocation") is not None:
            alloc = check_allocation(d["allocation"], d["n"], d["m"])
        bids = check_bids(d["bids"], d["n"], d["m"]) if d.get("bids") else None
    return d, vals, alloc, bids


def _initial_alloc(kind, instance_alloc, valuations):
    n, m = len(valuations), valuations[0].m
    if kind == "instance":
        if instance_alloc is None:
            raise DomainError("instance carries no allocation")
        return instance_alloc
    if kind == "auto":
        return instance_alloc if instance_alloc is not None else greedy_allocation(valuations)
    if kind == "greedy":
        return greedy_allocation(valuations)
    if kind == "pool":
        return tuple([frozenset(range(m))] + [frozenset()] * (n - 1))
    raise DomainError(f"unknown init '{kind}'")


def _maybe_opt(valuations, w):
    """(opt, w / opt) formatted, or None for both where the DP refuses."""
    try:
        opt, _ = optimal_welfare(valuations)
    except CapabilityError:
        return None, None
    return format_money(opt), format_money(w / opt) if opt > 0 else None


def _maybe_certify(valuations, bids, alloc):
    try:
        ok, witnesses = is_pure_nash_no_overbid(valuations, bids, alloc)
    except CapabilityError:
        return None, None
    return ok, [w["kind"] for w in witnesses[:4]]


def _finish_run(args, report, vals, alloc, bids, violated, trace_rows=None):
    """Fill the report tail the run commands share (allocation, bids, welfare,
    opt and ratio, certification, witness kinds, ledgers), emit the report and
    return the exit code. OPT and certification are null where the library
    refuses the instance. The ledgers are read after the last counted query,
    so every query the report makes is in them."""
    w = welfare(vals, alloc)
    report["allocation"] = _jsonable(alloc)
    report["bids"] = _jsonable(bids)
    report["welfare"] = format_money(w)
    report["opt"], report["ratio"] = _maybe_opt(vals, w)
    report["equilibrium_verified"], report["witness_kinds"] = _maybe_certify(vals, bids, alloc)
    report["ledgers"] = _ledgers(vals)
    _emit(report, args, trace_rows)
    if violated or report.get("equilibrium_verified") is False:
        return EXIT_VIOLATION
    return EXIT_OK


# -- generators ------------------------------------------------------------------


def _gen_table_submodular(rng, m):
    """Weighted coverage of a 2m-element universe plus a capped linear
    cardinality term; both parts are monotone submodular, so the table is."""
    u = 2 * m
    weights = [Fraction(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(u)]
    umask = [
        sum(1 << e for e in rng.sample(range(u), rng.randint(1, max(2, u // 3))))
        for _ in range(m)
    ]
    slope = Fraction(rng.randint(1, 4), 2)
    cap = slope * rng.randint(1, m)
    cov = [0] * (1 << m)
    wsum = [Fraction(0)] * (1 << m)
    values = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        j = low.bit_length() - 1
        prev = mask ^ low
        cov[mask] = cov[prev] | umask[j]
        fresh = umask[j] & ~cov[prev]
        extra = Fraction(0)
        while fresh:
            b = fresh & -fresh
            extra += weights[b.bit_length() - 1]
            fresh ^= b
        wsum[mask] = wsum[prev] + extra
        s = mask.bit_count()
        values[mask] = wsum[mask] + min(slope * s, cap)
    return TableValuation(m, values)


def _gen_budget_additive(rng, m):
    items = [Fraction(rng.randint(1, 9)) for _ in range(m)]
    total = sum(items)
    budget = Fraction(rng.randint(2, max(3, int(total))))
    return BudgetAdditiveValuation(m, budget, items)


def _gen_coverage(rng, m):
    if m < 2:
        raise DomainError("coverage instances need m >= 2")
    edges = []
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < 0.5:
                edges.append((a, b, Fraction(rng.randint(1, 4))))
    if not edges:
        edges.append((0, 1, Fraction(1)))
    return CoverageValuation(m, edges)


def cmd_gen(args):
    rng = random.Random(args.seed)
    family = args.family
    n = args.n
    m = args.m
    if n < 1 or m < 1:
        raise DomainError(f"need at least one bidder and one item, got n={n}, m={m}")
    instance = {"family": family, "m": m, "n": n, "seed": args.seed, "allocation": None}
    if family == "table-submodular":
        # every table is checked, so generation stops where the check does
        if m > VERIFY_CAP["submodular"]:
            raise CapabilityError(f"table generation capped at m={VERIFY_CAP['submodular']}")
        vals = [_gen_table_submodular(rng, m) for _ in range(n)]
        for v in vals:
            ok, witness = verify_class(v, "submodular")
            if not ok:
                raise ConstructionError(f"generated table not submodular: {witness}")
    elif family == "budget-additive":
        vals = [_gen_budget_additive(rng, m) for _ in range(n)]
    elif family == "coverage":
        vals = [_gen_coverage(rng, m) for _ in range(n)]
    elif family == "setpair":
        if n != 2:
            raise DomainError("setpair instances have two bidders")
        system = build_good_set_pair_system(m, args.count, args.seed)
        vals = []
        for player in (0, 1):
            flags = [rng.randint(0, 1) for _ in range(args.count)]
            if not any(flags):
                flags[rng.randrange(args.count)] = 1
            vals.append(SetPairValuation(system, flags, player))
    elif family == "sensitive":
        if args.support > math.comb(m, m // 2 + 1):
            raise DomainError(f"support {args.support} exceeds the C({m}, {m // 2 + 1}) bundles of size m'+1")
        k_map = {}
        floor_k = Fraction(1, 2 ** (m + 4))
        while len(k_map) < args.support:
            bundle = frozenset(rng.sample(range(m), m // 2 + 1))
            k_map[bundle] = max(floor_k, Fraction(rng.randint(1, 2 ** 11 - 1), 2 ** 13))
        vals = [
            SensitiveValuation(m, k_map=k_map, g=args.g, h=args.h)
            for _ in range(n)
        ]
    elif family == "gray-exponential":
        if n != 2:
            raise DomainError("the exponential instance has two bidders")
        v0, v1, _, init_alloc = build_exponential_instance(m)
        vals = [v0, v1]
        instance["allocation"] = _jsonable(init_alloc)
    else:
        raise DomainError(f"unknown family '{family}'")
    instance["valuations"] = [v.to_json() for v in vals]
    _emit(instance, args)
    return EXIT_OK


# -- algorithm runs ---------------------------------------------------------------


def cmd_steal(args):
    _, vals, inst_alloc, _ = _load_instance(args.instance)
    init = _initial_alloc(args.init, inst_alloc, vals)
    budget_additive = all(isinstance(v, BudgetAdditiveValuation) for v in vals)
    ba_run = budget_additive and args.policy == "stolen-last"

    def steal():
        try:
            if ba_run:
                run = run_budget_additive_stealing(vals, init, step_cap=args.step_cap)
            else:
                run = run_iterative_stealing(vals, init, policy=args.policy, step_cap=args.step_cap)
        except StealCapExceeded as exc:
            return None, exc.log
        return run, run.log

    (run, log), wall_ms = _timed(steal)
    truncated = run is None
    steals = len(log.events)
    report = {
        "algorithm": "steal",
        "policy": args.policy,
        "steals": steals,
        "truncated": truncated,
        "welfare_initial": format_money(welfare(vals, log.initial_alloc)),
        "wall_ms": wall_ms,
    }
    trace_rows = [
        {
            "thief": e.thief,
            "victim": e.victim,
            "item": e.item,
            "welfare_before": format_money(e.welfare_before),
            "welfare_after": format_money(e.welfare_after),
            "prices_after": [format_money(p) for p in e.prices_after],
            "tag": e.tag,
        }
        for e in log.events
    ]
    if truncated:
        _emit(report, args, trace_rows)
        return EXIT_VIOLATION
    if ba_run:
        report["steal_bound"] = budget_additive_steal_bound(len(vals), vals[0].m)
        report["within_bound"] = steals <= report["steal_bound"]
    violated = ba_run and not report["within_bound"]
    return _finish_run(args, report, vals, run.alloc, run.bids, violated, trace_rows)


def cmd_topsteal(args):
    _, vals, inst_alloc, _ = _load_instance(args.instance)
    init = _initial_alloc(args.init, inst_alloc, vals)
    greedy_w = welfare(vals, greedy_allocation(vals)) if args.init == "greedy" else None
    try:
        run, wall_ms = _timed(top_steal, vals, init, t=args.t)
    except TopStealDiagnostic as exc:
        _emit({"algorithm": "topsteal", "diagnostic": str(exc)}, args)
        return EXIT_VIOLATION
    n, m = len(vals), vals[0].m
    t = args.t if args.t is not None else n
    steals = len(run.steals)
    nodes = list(run.trace.walk())
    cases = {}
    for node in nodes:
        cases[node.case] = cases.get(node.case, 0) + 1
    # one row per recursion node in walk order; nodes are unhashable, so by id()
    ids = {id(node): k for k, node in enumerate(nodes)}
    parents = {id(child): ids[id(node)] for node in nodes for child in node.children}
    trace_rows = [
        {
            "id": k,
            "parent": parents.get(id(node)),
            "case": node.case,
            "m_active": node.m_active,
            "t": node.t,
            "steal": node.steal,
        }
        for k, node in enumerate(nodes)
    ]
    report = {
        "algorithm": "topsteal",
        "t": t,
        "steals": steals,
        "steal_bound": steal_count_bound(m, t),
        "within_bound": steals <= steal_count_bound(m, t),
        "cases": cases,
        "wall_ms": wall_ms,
    }
    if greedy_w is not None:
        report["greedy_welfare"] = format_money(greedy_w)
        report["at_least_greedy"] = welfare(vals, run.alloc) >= greedy_w
    violated = not report["within_bound"] or report.get("at_least_greedy") is False
    return _finish_run(args, report, vals, run.alloc, run.bids, violated, trace_rows)


def cmd_dynamic(args):
    _, vals, inst_alloc, _ = _load_instance(args.instance)
    if len(vals) != 2:
        raise DomainError("the dynamic runs with two bidders")
    init = _initial_alloc(args.init, inst_alloc, vals)
    run, wall_ms = _timed(run_best_reply_dynamic, *vals, init, step_cap=args.step_cap)
    increasing, _ = dynamic_trace_audit(run.trace)
    report = {
        "algorithm": "dynamic",
        "exchanges": run.trace.exchanges(),
        "responses": run.trace.responses,
        "truncated": run.trace.truncated,
        "sums_strictly_increase": increasing,
        "wall_ms": wall_ms,
    }
    trace_rows = [
        {
            "responder": row.responder,
            "allocation": _jsonable(row.alloc),
            "winning_sum": format_money(row.winning_sum),
        }
        for row in run.trace.rows
    ]
    settled = not run.trace.truncated
    if settled:
        report["traditional"], _ = is_traditional(vals, run.alloc, run.bids)
    violated = not settled or not increasing or report.get("traditional") is False
    return _finish_run(args, report, vals, run.alloc, run.bids, violated, trace_rows)


def cmd_adversary(args):
    adv = OddGraphAdversary(args.m, g=args.g, h=args.h, seed=args.seed)
    result, wall_ms = _timed(SEARCHERS[args.algorithm], adv, args.budget)
    ok, problems = adversary_audit(adv)
    report = {
        "algorithm": f"adversary-{args.algorithm}",
        "m": args.m,
        "budget": args.budget,
        "queries": result.queries,
        "steps": result.steps,
        "conceded": result.conceded,
        "certified": result.certified,
        "colored": len(adv.colored),
        "answers": len(adv.transcript),
        "materialized": sum(st["materialized"] for st in adv.stats),
        "audit_ok": ok,
        "audit_problems": [str(p) for p in problems[:8]],
        "wall_ms": wall_ms,
    }
    if adv.literal:
        report["query_lower_bound"] = query_lower_bound(args.m)
    trace_rows = [
        {
            "vertex": sorted(ans.vertex),
            "value": format_money(ans.value),
            "clause_item": ans.clause_item,
            "replay": ans.replay,
        }
        for ans in adv.transcript
    ]
    _emit(report, args, trace_rows)
    return EXIT_OK if ok and not result.certified else EXIT_VIOLATION


def cmd_verify(args):
    inst, vals, alloc, bids = _load_instance(args.instance)
    if args.bids:
        d = _load_json(args.bids)
        with _loading(args.bids):
            bids = check_bids(d["bids"], inst["n"], inst["m"])
    if bids is None:
        raise DomainError("verification needs bids (instance field or --bids)")
    ok, witnesses = is_pure_nash_no_overbid(vals, bids, alloc)
    res_alloc, _ = resolve(bids)
    w = welfare(vals, res_alloc)
    report = {
        "equilibrium": ok,
        "witnesses": _jsonable(witnesses[:8]),
        "allocation": _jsonable(res_alloc),
        "welfare": format_money(w),
    }
    report["opt"], report["ratio"] = _maybe_opt(vals, w)
    _emit(report, args)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_setpair_gen(args):
    system = build_good_set_pair_system(args.m, args.count, args.seed)
    _emit(system.to_json(), args)
    return EXIT_OK


def cmd_setpair_check(args):
    d = _load_json(args.system)
    with _loading(args.system):
        system = SetPairSystem.from_json(d)
    ok, problems = verify_set_pair_system(system)
    _emit({"good": ok, "problems": [list(p) for p in problems]}, args)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_maxcut_reduce(args):
    d = _load_json(args.graph)
    with _loading(args.graph):
        graph = WeightedGraph.from_json(d)
    vals = [maxcut_valuation(graph), maxcut_valuation(graph)]
    instance = {
        "family": "maxcut",
        "m": graph.vertices,
        "n": 2,
        "seed": args.seed,
        "graph": graph.to_json(),
        "valuations": [v.to_json() for v in vals],
        "allocation": None,
    }
    if args.side is not None:
        side = frozenset(int(x) for x in args.side.split(",") if x != "")
        alloc = (side, frozenset(range(graph.vertices)) - side)
        instance["allocation"] = _jsonable(alloc)
        is_lm, move = local_max_check(vals, alloc)
        instance["local_max"] = is_lm
        instance["improving_move"] = list(move) if move else None
        instance["cut_weight"] = format_money(graph.cut_weight(side))
    _emit(instance, args)
    return EXIT_OK


def cmd_isoperimetric(args):
    report = isoperimetric_check(args.n, samples=args.samples, seed=args.seed)
    report["failures"] = [list(f) for f in report["failures"]]
    _emit(report, args)
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


def cmd_bench(args):
    rng = random.Random(args.seed)

    def bench_steal():
        vals = [_gen_table_submodular(random.Random(rng.randint(0, 10 ** 6)), 6) for _ in range(3)]
        run = run_iterative_stealing(vals, _initial_alloc("pool", None, vals))
        return {"steals": len(run.log.events), "welfare": format_money(welfare(vals, run.alloc))}

    def bench_budget():
        vals = [_gen_budget_additive(random.Random(rng.randint(0, 10 ** 6)), 8) for _ in range(3)]
        run = run_budget_additive_stealing(vals, _initial_alloc("pool", None, vals))
        return {"steals": len(run.log.events)}

    def bench_topsteal():
        vals = [_gen_table_submodular(random.Random(rng.randint(0, 10 ** 6)), 6) for _ in range(2)]
        run = top_steal(vals, _initial_alloc("pool", None, vals))
        return {"steals": len(run.steals)}

    def bench_dynamic():
        v0, v1, _, init = build_exponential_instance(5)
        run = run_best_reply_dynamic(v0, v1, init)
        return {"exchanges": run.trace.exchanges()}

    def bench_adversary():
        adv = OddGraphAdversary(9, g=1, h=2, seed=0)
        res = SEARCHERS["hill"](adv, 40)
        return {"queries": res.queries, "conceded": res.conceded}

    rows = []
    for name, fn in (("steal-submodular", bench_steal), ("steal-budget-additive", bench_budget),
                     ("topsteal", bench_topsteal), ("dynamic-gray-m5", bench_dynamic),
                     ("adversary-small", bench_adversary)):
        out, wall_ms = _timed(fn)
        rows.append({"name": name, "wall_ms": wall_ms, **out})
    _emit({"bench": rows}, args)
    return EXIT_OK


# -- wiring -----------------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("json", "csv"), default="json")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--instance", required=True)
    run.add_argument("--init", choices=("auto", "instance", "greedy", "pool"), default="auto")

    p = argparse.ArgumentParser(prog="sspeq")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common])
    g.add_argument("--family", choices=FAMILIES, required=True)
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--count", type=int, default=3)
    g.add_argument("--support", type=int, default=5)
    g.add_argument("--g", type=int, default=LITERAL_G)
    g.add_argument("--h", type=int, default=LITERAL_H)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("steal", parents=[common, run])
    s.add_argument("--policy", choices=ORDERING_POLICIES, default="stolen-last")
    s.add_argument("--step-cap", type=int, default=100_000)
    s.add_argument("--trace-out", default=None)
    s.set_defaults(fn=cmd_steal)

    ts = sub.add_parser("topsteal", parents=[common, run])
    ts.add_argument("--t", type=int, default=None)
    ts.add_argument("--trace-out", default=None)
    ts.set_defaults(fn=cmd_topsteal)

    d = sub.add_parser("dynamic", parents=[common, run])
    d.add_argument("--step-cap", type=int, default=None)  # None: default_step_cap
    d.add_argument("--trace-out", default=None)
    d.set_defaults(fn=cmd_dynamic)

    a = sub.add_parser("adversary", parents=[common])
    a.add_argument("--m", type=int, required=True)
    a.add_argument("--algorithm", choices=sorted(SEARCHERS), required=True)
    a.add_argument("--budget", type=int, default=2000)
    a.add_argument("--g", type=int, default=LITERAL_G)
    a.add_argument("--h", type=int, default=LITERAL_H)
    a.add_argument("--report", dest="out")
    a.add_argument("--trace-out", default=None)
    a.set_defaults(fn=cmd_adversary)

    v = sub.add_parser("verify", parents=[common])
    v.add_argument("--instance", required=True)
    v.add_argument("--bids", default=None)
    v.set_defaults(fn=cmd_verify)

    sg = sub.add_parser("setpair-gen", parents=[common])
    sg.add_argument("--m", type=int, required=True)
    sg.add_argument("--count", type=int, default=3)
    sg.set_defaults(fn=cmd_setpair_gen)

    sc = sub.add_parser("setpair-check", parents=[common])
    sc.add_argument("--system", required=True)
    sc.set_defaults(fn=cmd_setpair_check)

    mr = sub.add_parser("maxcut-reduce", parents=[common])
    mr.add_argument("--graph", required=True)
    mr.add_argument("--side", default=None)
    mr.set_defaults(fn=cmd_maxcut_reduce)

    iso = sub.add_parser("isoperimetric", parents=[common])
    iso.add_argument("--n", type=int, required=True)
    iso.add_argument("--samples", type=int, default=None)
    iso.set_defaults(fn=cmd_isoperimetric)

    b = sub.add_parser("bench", parents=[common])
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CapabilityError, DomainError, ConstructionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
