"""The benchmark's four workloads.

Each workload makes its inputs from a seed through the library's public
constructors, runs timed ops through module attributes (so a traced pass can
patch them where the library looks them up), and checks every output
exactly, outside the timed region. Why each workload exists, and which
layer it should and should not move, is in README.md beside this file.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from sspeq import (
    BudgetAdditiveValuation,
    CoverageValuation,
    OddGraphAdversary,
    TableValuation,
    adversary_audit,
    budget_additive_steal_bound,
    dynamic_trace_audit,
    greedy_allocation,
    query_lower_bound,
    steal_count_bound,
)
from sspeq import auction, hardness, stealing, topsteal, xos_dynamics

# Module attributes wrapped in a traced pass, with the span each one opens.
# A name imported into two modules is looked up in both, so both are wrapped.
TRACED_ATTRS = (
    (auction, "is_pure_nash_no_overbid", "auction.is_pure_nash_no_overbid"),
    (auction, "best_deviation", "auction.best_deviation"),
    (auction, "check_no_overbidding", "auction.check_no_overbidding"),
    (auction, "optimal_welfare", "auction.optimal_welfare"),
    (stealing, "run_iterative_stealing", "stealing.run"),
    (stealing, "compute_bids", "stealing.compute_bids"),
    (topsteal, "compute_bids", "stealing.compute_bids"),
    (stealing, "find_steal", "stealing.find_steal"),
    (topsteal, "find_steal", "stealing.find_steal"),
    (topsteal, "top_steal", "topsteal.top_steal"),
    (xos_dynamics, "build_exponential_instance", "xos_dynamics.build"),
    (xos_dynamics, "gray_middle_levels", "xos_dynamics.gray_path"),
    (xos_dynamics, "run_best_reply_dynamic", "xos_dynamics.dynamic"),
    (hardness, "sparse_demand_oracle", "hardness.sparse_demand_oracle"),
)

# Exchange counts of the exponential best-reply dynamic, fixed by the paper.
EXPECTED_EXCHANGES = {5: 19, 7: 69}


def canon(x) -> str:
    """Canonical text of an output: rationals as num/den, sets sorted."""
    if isinstance(x, bool):
        return "T" if x else "F"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if x is None:
        return "-"
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(canon(e) for e in sorted(x)) + "}"
    if isinstance(x, (tuple, list)):
        return "[" + ",".join(canon(e) for e in x) + "]"
    if isinstance(x, dict):
        return "<" + ",".join(canon(k) + ":" + canon(v) for k, v in sorted(x.items())) + ">"
    raise TypeError(f"no canonical form for {type(x).__name__}")


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    op_ms: list = field(default_factory=list)
    timed_s: float = 0.0
    records: list = field(default_factory=list)
    exact: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def record(self, *parts):
        self.records.append(canon(parts))

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


def _ledger_totals(valuations) -> Counter:
    out = Counter()
    for v in valuations:
        out["valuations.value_queries"] += v.ledger.value
        out["valuations.demand_queries"] += v.ledger.demand
        out["valuations.xos_queries"] += v.ledger.xos
    return out


def _value_queries(valuations) -> int:
    return sum(v.ledger.value for v in valuations)


def _pool(n: int, m: int):
    return (frozenset(range(m)),) + (frozenset(),) * (n - 1)


# -- input generators (public constructors only) ------------------------------


def gen_coverage(rng: random.Random, m: int) -> CoverageValuation:
    """Random graph on the items; each edge present with probability 1/2."""
    edges = [
        (a, b, Fraction(rng.randint(1, 4)))
        for a in range(m)
        for b in range(a + 1, m)
        if rng.random() < 0.5
    ]
    return CoverageValuation(m, edges or [(0, 1, Fraction(1))])


def gen_submodular_table(rng: random.Random, m: int) -> TableValuation:
    """Weighted set cover of a hidden ground set plus a concave function of
    the bundle size: both parts are monotone submodular, so the sum is."""
    ground = 2 * m
    weight = [Fraction(rng.randint(1, 6), rng.choice((1, 2, 3))) for _ in range(ground)]
    covers = [
        sum(1 << e for e in rng.sample(range(ground), rng.randint(1, max(2, ground // 3))))
        for _ in range(m)
    ]
    steps = sorted(Fraction(rng.randint(0, 3), 2) for _ in range(m))[::-1]
    concave = [Fraction(0)]
    for step in steps:
        concave.append(concave[-1] + step)
    covered = [0] * (1 << m)
    values = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        covered[mask] = covered[mask ^ low] | covers[low.bit_length() - 1]
    for mask in range(1, 1 << m):
        bits, total = covered[mask], concave[mask.bit_count()]
        while bits:
            b = bits & -bits
            total += weight[b.bit_length() - 1]
            bits ^= b
        values[mask] = total
    return TableValuation(m, values)


def gen_budget_additive(rng: random.Random, m: int) -> BudgetAdditiveValuation:
    items = [Fraction(rng.randint(1, 9)) for _ in range(m)]
    budget = Fraction(rng.randint(2, max(3, int(sum(items)))))
    return BudgetAdditiveValuation(m, budget, items)


# -- workloads -----------------------------------------------------------------


class Workload:
    """A workload runs `setup` once per set-up repetition, then rounds.

    Rounds below `digest_rounds` always run; the digest and the exact counts
    cover exactly those rounds, so they do not depend on how many further
    rounds fit in the measured time. Every round draws fresh inputs from
    (seed, round index).
    """

    name = ""
    digest_rounds = 1
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{r}")

    def setup(self, session):
        return None

    def check_setup(self, state, session) -> RoundResult:
        return RoundResult()

    def run_round(self, r: int, session) -> RoundResult:
        raise NotImplementedError


class Certify(Workload):
    """`sspeq verify` on two profiles per instance: the pool start and the
    profile stealing settles in. Both ops share the instance's valuations."""

    name = "certify"
    ops_per_round = 2

    def __init__(self, seed: int, m: int = 10, digest_rounds: int = 4):
        super().__init__(seed)
        self.m = m
        self.digest_rounds = digest_rounds

    def run_round(self, r, session):
        out = RoundResult()
        rng = self.rng(r)
        m = self.m
        vals = [gen_coverage(rng, m), gen_coverage(rng, m), gen_submodular_table(rng, m)]
        run = stealing.run_iterative_stealing(vals, _pool(3, m))
        steals = run.log.steals()
        # From the pool, only bidder 0 bids, so its bids are the initial prices.
        pool_bids = (run.log.initial_prices,) + ((Fraction(0),) * m,) * 2
        outputs = []
        for kind, bids in (("pool", pool_bids), ("settled", run.bids)):
            out.attempted += 1
            session.tick()
            with session.timed(op=True) as clock:
                ok, witnesses = auction.is_pure_nash_no_overbid(vals, bids)
                alloc, payments = auction.resolve(bids)
                w = auction.welfare(vals, alloc)
                opt, opt_alloc = auction.optimal_welfare(vals)
                ratio = w / opt
            out.timed_s += clock.seconds
            out.op_ms.append(1000 * clock.seconds)
            outputs.append((kind, bids, ok, witnesses, alloc, payments, w, opt, opt_alloc, ratio))
        out.exact.update(_ledger_totals(vals))
        out.exact["stealing.steals"] += steals

        with session.quiet():
            out.record(r, "steal", [(e.thief, e.victim, e.item, e.welfare_after) for e in run.log.events])
            for kind, bids, ok, witnesses, alloc, payments, w, opt, opt_alloc, ratio in outputs:
                out.record(r, kind, ok, witnesses, alloc, payments, bids, w, opt, opt_alloc, ratio)
                good = out.check(auction.welfare(vals, opt_alloc) == opt, f"{r}/{kind}: OPT allocation")
                good &= out.check(w <= opt, f"{r}/{kind}: welfare above OPT")
                good &= out.check(
                    all(x["kind"] == "deviation" for x in witnesses), f"{r}/{kind}: non-deviation witness"
                )
                for x in witnesses:
                    good &= out.check(self._witness_holds(vals, bids, x), f"{r}/{kind}: witness does not hold")
                if kind == "settled":
                    good &= out.check(ok, f"{r}: settled profile not an equilibrium")
                    good &= out.check(2 * w >= opt, f"{r}: settled welfare below OPT/2")
                else:
                    good &= out.check(ok == (steals == 0), f"{r}: pool verdict {ok} with {steals} steals")
                out.failed += not good
        return out

    @staticmethod
    def _witness_holds(vals, bids, witness) -> bool:
        """A deviation witness is a bundle whose utility against the rivals'
        standing bids strictly beats the bidder's current utility."""
        i, bundle = witness["bidder"], witness["bundle"]
        price = sum(
            (max(row[j] for k, row in enumerate(bids) if k != i) for j in bundle), Fraction(0)
        )
        utility = vals[i].value(bundle) - price
        return utility == witness["utility"] and utility > witness["current"]


class Settle(Workload):
    """One round of each settling procedure on fresh instances."""

    name = "settle"

    def __init__(self, seed: int, m_table: int = 8, m_budget: int = 12, m_dynamic: int = 5,
                 m_setup: int = 7, digest_rounds: int = 200):
        super().__init__(seed)
        self.m_table, self.m_budget = m_table, m_budget
        self.m_dynamic, self.m_setup = m_dynamic, m_setup
        self.digest_rounds = digest_rounds

    def setup(self, session):
        return xos_dynamics.build_exponential_instance(self.m_setup)

    def check_setup(self, state, session):
        out = RoundResult()
        with session.quiet():
            v0, v1, oracles, init = state
            dyn = xos_dynamics.run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init)
            self._check_dynamic(out, "setup", self.m_setup, dyn)
            out.exact[f"xos_dynamics.exchanges_m{self.m_setup}"] += dyn.trace.exchanges()
            out.record("setup", v0.path_masks, v0.eps)
        return out

    def _check_dynamic(self, out, tag, m, dyn):
        trace = dyn.trace
        out.record(tag, "dynamic", trace.exchanges(), trace.responses, trace.truncated, dyn.alloc,
                   dyn.bids, [(row.responder, row.alloc, row.winning_sum) for row in trace.rows])
        good = out.check(not trace.truncated, f"{tag}: dynamic truncated")
        good &= out.check(trace.exchanges() == EXPECTED_EXCHANGES[m],
                          f"{tag}: {trace.exchanges()} exchanges at m={m}")
        good &= out.check(dynamic_trace_audit(trace)[0], f"{tag}: dynamic audit failed")
        return good

    def run_round(self, r, session):
        out = RoundResult(attempted=1)
        rng = self.rng(r)
        tables = [gen_submodular_table(rng, self.m_table) for _ in range(3)]
        budgets = [gen_budget_additive(rng, self.m_budget) for _ in range(3)]
        greedy = greedy_allocation(tables)
        before = _ledger_totals(tables + budgets)

        with session.timed(op=True) as clock:
            q0 = _value_queries(tables)
            run = stealing.run_iterative_stealing(tables, _pool(3, self.m_table))
            q1 = _value_queries(tables)
            top = topsteal.top_steal(tables, greedy, t=3)
            q2 = _value_queries(budgets)
            ba = stealing.run_budget_additive_stealing(budgets, _pool(3, self.m_budget))
            q3 = _value_queries(budgets)
            v0, v1, oracles, init = xos_dynamics.build_exponential_instance(self.m_dynamic)
            session.trace_method(v0, "demand", "xos_dynamics.demand")
            session.trace_method(v1, "demand", "xos_dynamics.demand")
            dyn = xos_dynamics.run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init)
        out.timed_s, out.op_ms = clock.seconds, [1000 * clock.seconds]

        after = _ledger_totals(tables + budgets + [v0, v1])
        after.subtract(before)
        out.exact.update(after)
        steals, ba_steals, top_steals = run.log.steals(), ba.log.steals(), len(top.steals)
        out.exact["stealing.steals"] += steals + ba_steals
        out.exact["stealing.value_queries"] += (q1 - q0) + (q3 - q2)
        out.exact["topsteal.steals"] += top_steals
        out.exact["topsteal.trace_nodes"] += sum(1 for _ in top.trace.walk())
        out.exact["topsteal.bound"] += steal_count_bound(self.m_table, 3)
        out.exact["xos_dynamics.exchanges"] += dyn.trace.exchanges()
        out.exact["xos_dynamics.responses"] += dyn.trace.responses

        with session.quiet():
            find_steal = stealing.find_steal
            out.record(r, "steal", run.alloc, run.bids,
                       [(e.thief, e.victim, e.item, e.welfare_after) for e in run.log.events])
            out.record(r, "topsteal", top.alloc, top.bids, top.steals,
                       [node.case for node in top.trace.walk()])
            out.record(r, "budget", ba.alloc, ba.bids,
                       [(e.thief, e.victim, e.item, e.tag) for e in ba.log.events])
            good = out.check(find_steal(tables, run.alloc, run.bids) is None, f"{r}: stealing not settled")
            good &= out.check(
                all(e.welfare_after > e.welfare_before for e in run.log.events),
                f"{r}: a steal did not raise welfare",
            )
            good &= out.check(find_steal(tables, top.alloc, top.bids) is None, f"{r}: top_steal not settled")
            good &= out.check(top_steals <= steal_count_bound(self.m_table, 3), f"{r}: top_steal over bound")
            good &= out.check(top.trace.steals_total() == top_steals, f"{r}: top_steal trace disagrees")
            good &= out.check(find_steal(budgets, ba.alloc, ba.bids) is None, f"{r}: budget stealing not settled")
            good &= out.check(ba_steals <= budget_additive_steal_bound(3, self.m_budget),
                              f"{r}: budget stealing over bound")
            good &= self._check_dynamic(out, r, self.m_dynamic, dyn)
        out.failed = int(not good)
        return out


class _AdversaryWorkload(Workload):
    """Searchers against fresh odd-graph adversaries at the query floor."""

    def __init__(self, seed: int, m: int = 43, g=None, h=None, budget=None, digest_rounds: int = 1):
        super().__init__(seed)
        self.m = m
        self.kwargs = {k: v for k, v in (("g", g), ("h", h)) if v is not None}
        self.budget = query_lower_bound(m) if budget is None else budget
        self.digest_rounds = digest_rounds

    def adversary(self, adv_seed: int, session, timed_attr: str, latencies: list):
        adv = OddGraphAdversary(self.m, seed=adv_seed, **self.kwargs)
        session.time_method(adv, timed_attr, latencies)
        for attr in ("answer", "view", "demand_query"):
            session.trace_method(adv, attr, f"hardness.{attr}")
        return adv

    def check_search(self, out, tag, adv, res, session) -> bool:
        with session.quiet():
            ok, problems = adversary_audit(adv)
            out.record(tag, res.queries, res.steps, res.conceded, res.certified,
                       [(a.vertex, a.value, a.clause_item, a.replay, a.conceded) for a in adv.transcript],
                       [st["materialized"] for st in adv.stats])
        out.exact["hardness.queries"] += res.queries
        out.exact["hardness.answers"] += len(adv.transcript)
        out.exact["hardness.materialized"] += sum(st["materialized"] for st in adv.stats)
        good = out.check(res.queries == self.budget == adv.num_queries(),
                         f"{tag}: {res.queries} queries, budget {self.budget}")
        good &= out.check(not res.certified, f"{tag}: a local maximum was certified")
        good &= out.check(not res.conceded, f"{tag}: the adversary conceded")
        good &= out.check(ok, f"{tag}: audit found {problems[:3]}")
        return good


class AdversaryValue(_AdversaryWorkload):
    """The hill searcher on even rounds and the random searcher on odd ones,
    each against a fresh adversary; one op is one `answer` call."""

    name = "adversary-value"

    def __init__(self, seed: int, digest_rounds: int = 2, **sizes):
        super().__init__(seed, digest_rounds=digest_rounds, **sizes)
        self.ops_per_round = self.budget

    def run_round(self, r, session):
        out = RoundResult()
        rng = self.rng(r)
        adv_seed, probe_seed = rng.randrange(2 ** 32), rng.randrange(2 ** 32)
        start = frozenset(rng.sample(range(self.m), self.m // 2 + 1))
        tag = ("hill", "random")[r % 2]
        latencies = []
        adv = self.adversary(adv_seed, session, "answer", latencies)
        with session.timed() as clock:
            if tag == "hill":
                res = hardness.hill_climb_search(adv, self.budget, start=start)
            else:
                res = hardness.random_probe_search(adv, self.budget, seed=probe_seed)
        out.timed_s = clock.seconds
        out.op_ms, out.attempted = latencies, len(latencies)
        if not self.check_search(out, f"{r}/{tag}", adv, res, session):
            out.failed = len(latencies)
        return out


class AdversaryDemand(_AdversaryWorkload):
    """The best-reply searcher; one op is one `demand_query` call."""

    name = "adversary-demand"

    def __init__(self, seed: int, **sizes):
        super().__init__(seed, **sizes)
        self.ops_per_round = self.budget - 1

    def run_round(self, r, session):
        out = RoundResult()
        latencies = []
        adv = self.adversary(self.rng(r).randrange(2 ** 32), session, "demand_query", latencies)
        with session.timed() as clock:
            res = hardness.best_reply_search(adv, self.budget)
        out.timed_s = clock.seconds
        out.op_ms, out.attempted = latencies, len(latencies)
        out.exact["hardness.demand_queries"] += len(latencies)
        # Answers beyond the searcher's own steps were pivots inside demand_query.
        out.exact["hardness.demand_pivots"] += len(adv.transcript) - res.steps
        if not self.check_search(out, f"{r}/bestreply", adv, res, session):
            out.failed = len(latencies)
        return out


FULL = {cls.name: cls for cls in (Certify, Settle, AdversaryValue, AdversaryDemand)}

# Small sizes with the same code paths, for the self-test.
TINY = {
    "certify": lambda seed: Certify(seed, m=6, digest_rounds=2),
    "settle": lambda seed: Settle(seed, m_table=5, m_budget=6, m_setup=5, digest_rounds=3),
    "adversary-value": lambda seed: AdversaryValue(seed, m=9, g=1, h=2, budget=40),
    "adversary-demand": lambda seed: AdversaryDemand(seed, m=9, g=1, h=2, budget=40),
}
